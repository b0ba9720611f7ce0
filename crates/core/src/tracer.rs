//! The Pilgrim tracer: the per-rank PMPI-side state machine that encodes
//! every intercepted call into a signature, grows the CST and CFG online,
//! assigns symbolic ids to every MPI object, and runs the inter-process
//! merge at finalize.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use mpi_sim::funcs::{Completions, Object, Shape};
use mpi_sim::hooks::{Arg, CallRec, ToolRequest, TraceCtx, Tracer};
use pilgrim_sequitur::{FlatGrammar, Grammar};

use crate::checkpoint::{decode_checkpoint, encode_checkpoint};
use crate::cst::Cst;
use crate::encode::{EncoderConfig, SigWriter};
use crate::governor::{ComponentBytes, DegradationStage, Governor};
use crate::idpool::{IdPool, SigPools};
use crate::ingest::SegmentSink;
use crate::memtracker::MemTracker;
use crate::merge::{self, LocalPiece, MergeError, RankCompletion, RankSegments, TraceSegment};
use crate::metrics::{MetricsRegistry, MetricsReport, Stage};
use crate::nondet::{call_event, resolved_match, NondetEvent};
use crate::stats::OverheadStats;
use crate::timing::TimingCompressor;
use crate::trace::GlobalTrace;

/// Timing collection mode (§3.2).
#[derive(Debug, Clone, Copy)]
pub enum TimingMode {
    /// Keep only per-signature average durations in the CST (default).
    Aggregate,
    /// Additionally keep lossy per-call durations and intervals, binned
    /// exponentially with the given base (relative error `base - 1`).
    Lossy { base: f64 },
}

/// Tracer configuration.
#[derive(Debug, Clone, Copy)]
pub struct PilgrimConfig {
    pub encoder: EncoderConfig,
    pub timing: TimingMode,
    /// Keep raw records and the terminal sequence for lossless
    /// verification (testing only; costs memory).
    pub capture_reference: bool,
    /// Ablation: use one shared request-id pool instead of the paper's
    /// per-signature pools (§3.4.3) — nondeterministic completion order
    /// then churns ids and breaks signature repetition.
    pub shared_request_pool: bool,
    /// Ablation: skip the identity check before grammar merges (§3.5.2).
    pub merge_identity_check: bool,
    /// Record per-stage timers, counters and byte gauges in the tracer's
    /// [`MetricsRegistry`]; off by default (the hot path then pays only a
    /// branch per call).
    pub metrics: bool,
    /// Snapshot the CST + grammar with the runtime every N traced calls
    /// ([`crate::checkpoint`]); a rank killed mid-run then contributes its
    /// last snapshot to the merged trace instead of vanishing. Off by
    /// default.
    pub checkpoint_interval: Option<u64>,
    /// Per-receive wait budget during a degraded merge, in milliseconds
    /// ([`crate::merge::MergePolicy`]). While the world is healthy the
    /// effective budget is 8x this.
    pub merge_timeout_ms: u64,
    /// Record every nondeterministic resolution (wildcard matches,
    /// wait/test completion choices, probe flags) into a per-rank
    /// [`NondetEvent`] side-channel for deterministic replay
    /// ([`crate::rr`]). Off by default; the harness attaches the
    /// collected events to [`GlobalTrace::nondet`] after the run.
    pub record_nondet: bool,
    /// Caps the tracer's compression working set (CST, grammars, timing,
    /// memory segments, reference capture) at this many bytes. Under
    /// pressure the resource governor degrades in stages — freeze rule
    /// creation, collapse per-call timing to aggregates, seal the grammar
    /// as a segment and restart — instead of growing without bound. `None`
    /// (the default) disables the governor entirely; tracing behavior is
    /// then byte-identical to a build without it.
    pub memory_budget: Option<usize>,
}

impl Default for PilgrimConfig {
    fn default() -> Self {
        PilgrimConfig {
            encoder: EncoderConfig::default(),
            timing: TimingMode::Aggregate,
            capture_reference: false,
            shared_request_pool: false,
            merge_identity_check: true,
            metrics: false,
            checkpoint_interval: None,
            merge_timeout_ms: 800,
            record_nondet: false,
            memory_budget: None,
        }
    }
}

impl PilgrimConfig {
    /// Starts from the defaults; chain the builder methods to customize.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the signature encoder configuration.
    pub fn encoder(mut self, encoder: EncoderConfig) -> Self {
        self.encoder = encoder;
        self
    }

    /// Sets the timing collection mode.
    pub fn timing(mut self, timing: TimingMode) -> Self {
        self.timing = timing;
        self
    }

    /// Keeps raw records for lossless verification (testing only).
    pub fn capture_reference(mut self, on: bool) -> Self {
        self.capture_reference = on;
        self
    }

    /// Ablation: one shared request-id pool instead of per-signature pools.
    pub fn shared_request_pool(mut self, on: bool) -> Self {
        self.shared_request_pool = on;
        self
    }

    /// Ablation: toggles the pre-merge grammar identity check.
    pub fn merge_identity_check(mut self, on: bool) -> Self {
        self.merge_identity_check = on;
        self
    }

    /// Enables the per-stage metrics registry.
    pub fn metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }

    /// Snapshots the CST + grammar every `calls` traced calls so a killed
    /// rank contributes a truncated trace instead of nothing.
    pub fn checkpoint_interval(mut self, calls: u64) -> Self {
        self.checkpoint_interval = Some(calls);
        self
    }

    /// Sets the degraded-merge per-receive wait budget in milliseconds.
    pub fn merge_timeout_ms(mut self, ms: u64) -> Self {
        self.merge_timeout_ms = ms;
        self
    }

    /// Records the nondeterminism side-channel for deterministic replay.
    pub fn record_nondet(mut self, on: bool) -> Self {
        self.record_nondet = on;
        self
    }

    /// Caps the tracer's compression working set at `bytes`
    /// ([`PilgrimConfig::memory_budget`]).
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }
}

/// Everything a rank produces at finalize: the merged trace (rank 0
/// only), the rank's metrics snapshot, and its overhead decomposition.
#[derive(Debug)]
pub struct FinalizeOutput {
    /// The merged trace; `Some` only on the rank that held it (rank 0).
    pub trace: Option<GlobalTrace>,
    /// Metrics snapshot, with the trace size decomposition attached when
    /// this rank holds the merged trace.
    pub metrics: MetricsReport,
    /// Wall-clock overhead decomposition.
    pub stats: OverheadStats,
}

/// A reference capture entry for verification.
#[derive(Debug, Clone)]
pub struct CapturedCall {
    pub rec: CallRec,
    /// The caller's rank in the call's communicator at encode time.
    pub caller_rank: i64,
    /// The grammar terminal the call was mapped to.
    pub term: u32,
}

/// Bookkeeping for a live request's symbolic id.
#[derive(Debug, Clone)]
struct ReqEntry {
    sym: u64,
    /// Index of the [`SigPools`] pool `sym` came from.
    pool: u32,
    comm_rank: i64,
    /// Persistent requests keep their id across completions; only
    /// `MPI_Request_free` releases it.
    persistent: bool,
}

/// The Pilgrim tracer for one rank.
pub struct PilgrimTracer {
    cfg: PilgrimConfig,
    rank: usize,
    cst: Cst,
    grammar: Grammar,
    /// Raw comm handle -> globally consistent symbolic id (§3.3.1).
    comm_ids: HashMap<u32, u64>,
    /// Highest comm symbolic id assigned locally (monotonic).
    comm_high_water: u64,
    /// Pending `MPI_Comm_idup` id all-reduces: (new handle, request).
    pending_idups: Vec<(u32, ToolRequest)>,
    dtype_ids: HashMap<u32, u64>,
    dtype_pool: IdPool,
    group_ids: HashMap<u32, u64>,
    group_pool: IdPool,
    /// Raw request id -> symbolic id bookkeeping (§3.4.3).
    reqs: HashMap<u64, ReqEntry>,
    req_pools: SigPools,
    mem: MemTracker,
    /// The current call's signature; one buffer reused by every call.
    sig: SigWriter,
    timing: Option<TimingCompressor>,
    /// Resource governor (active only with [`PilgrimConfig::memory_budget`]).
    governor: Governor,
    /// Total traced calls across all segments (the grammar restarts at
    /// each seal, so `grammar.input_len()` only covers the live segment).
    calls: u64,
    /// Sealed grammar segments, serialized with the checkpoint codec and
    /// excluded from the governed working set (modeled spill-to-disk).
    /// Stays empty in streaming mode: sealed segments are pushed to the
    /// sink instead of being retained.
    sealed: Vec<Vec<u8>>,
    /// Streaming seam: when set, sealed segments are pushed out as they
    /// are produced and finalize streams the final segment plus a
    /// completion marker instead of running the batch merge.
    sink: Option<Arc<dyn SegmentSink>>,
    /// Next segment sequence number on the stream.
    stream_seq: u32,
    /// The governor collapsed per-call timing to aggregates mid-run.
    timing_dropped: bool,
    /// Recorded nondeterministic resolutions, keyed by 0-based call
    /// index (only with [`PilgrimConfig::record_nondet`]).
    nondet: BTreeMap<u64, NondetEvent>,
    /// Raw request id -> call index of the wildcard `Irecv` that created
    /// it, until its completion reveals the match.
    wildcard_irecvs: HashMap<u64, u64>,
    metrics: MetricsRegistry,
    stats: OverheadStats,
    captured: Vec<CapturedCall>,
    result: Option<GlobalTrace>,
    merge_error: Option<MergeError>,
    local_size: usize,
    finalized: bool,
}

/// Symbolic-id offset for derived datatypes (predefined handles keep
/// their values, matching the paper's "only the size" contrast: we keep
/// identity for built-ins and pool ids for deriveds).
const DERIVED_DTYPE_BASE: u64 = 16;

impl PilgrimTracer {
    pub fn new(rank: usize, cfg: PilgrimConfig) -> Self {
        let timing = match cfg.timing {
            TimingMode::Aggregate => None,
            TimingMode::Lossy { base } => Some(TimingCompressor::new(base)),
        };
        let mut comm_ids = HashMap::new();
        comm_ids.insert(0, 0); // MPI_COMM_WORLD is id 0 everywhere.
        PilgrimTracer {
            cfg,
            rank,
            cst: Cst::new(),
            grammar: Grammar::new(),
            comm_ids,
            comm_high_water: 0,
            pending_idups: Vec::new(),
            dtype_ids: HashMap::new(),
            dtype_pool: IdPool::new(),
            group_ids: HashMap::new(),
            group_pool: IdPool::new(),
            reqs: HashMap::new(),
            req_pools: SigPools::new(),
            mem: MemTracker::new(),
            sig: SigWriter::default(),
            timing,
            governor: Governor::new(cfg.memory_budget),
            calls: 0,
            sealed: Vec::new(),
            sink: None,
            stream_seq: 0,
            timing_dropped: false,
            nondet: BTreeMap::new(),
            wildcard_irecvs: HashMap::new(),
            metrics: MetricsRegistry::new(cfg.metrics),
            stats: OverheadStats::default(),
            captured: Vec::new(),
            result: None,
            merge_error: None,
            local_size: 0,
            finalized: false,
        }
    }

    /// Default-configured tracer.
    pub fn with_defaults(rank: usize) -> Self {
        PilgrimTracer::new(rank, PilgrimConfig::default())
    }

    /// Attaches a segment stream: sealed segments are pushed to `sink`
    /// mid-run instead of being retained, and finalize streams the final
    /// segment plus a [`RankCompletion`] instead of running the batch
    /// merge (no rank then holds the merged trace — the collector
    /// driving the sink does). See [`crate::ingest`].
    pub fn with_segment_sink(mut self, sink: Arc<dyn SegmentSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    // ------------------------------------------------------------------
    // Accessors (harness / tests)
    // ------------------------------------------------------------------

    /// The merged trace; `Some` only on rank 0 after finalize.
    pub fn global_trace(&self) -> Option<&GlobalTrace> {
        self.result.as_ref()
    }

    /// Takes everything finalize produced: the merged trace (rank 0), the
    /// rank's metrics snapshot (with the trace size decomposition attached
    /// when this rank holds the trace), and its overhead stats.
    pub fn take_output(&mut self) -> FinalizeOutput {
        let trace = self.result.take();
        let mut metrics = self.metrics.snapshot();
        if let Some(t) = &trace {
            metrics.size = Some(t.size_report());
        }
        FinalizeOutput { trace, metrics, stats: self.stats }
    }

    /// The live metrics registry (enabled via [`PilgrimConfig::metrics`]).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// This rank's local CST size (signatures).
    pub fn cst_len(&self) -> usize {
        self.cst.len()
    }

    /// This rank's local (pre-merge) trace size in bytes.
    pub fn local_size_bytes(&self) -> usize {
        self.local_size
    }

    /// Overhead decomposition for this rank.
    pub fn stats(&self) -> OverheadStats {
        self.stats
    }

    /// Reference capture (only populated with `capture_reference`).
    pub fn captured(&self) -> &[CapturedCall] {
        &self.captured
    }

    /// Number of calls traced (across every sealed segment).
    pub fn call_count(&self) -> u64 {
        self.calls
    }

    /// Takes this rank's recorded nondeterministic resolutions, keyed by
    /// 0-based call index (populated only with
    /// [`PilgrimConfig::record_nondet`]). The record harness
    /// ([`crate::rr::record`]) assembles these into the trace's
    /// [`crate::NondetLog`].
    pub fn take_nondet(&mut self) -> BTreeMap<u64, NondetEvent> {
        std::mem::take(&mut self.nondet)
    }

    /// The resource governor: peak byte accounting and the degradation
    /// events applied so far (inactive without a
    /// [`PilgrimConfig::memory_budget`]).
    pub fn governor(&self) -> &Governor {
        &self.governor
    }

    /// Why this rank's own trace missed the merge, if it did (degraded
    /// merges only; `None` after a healthy finalize).
    pub fn merge_error(&self) -> Option<MergeError> {
        self.merge_error
    }

    // ------------------------------------------------------------------
    // Symbolic ids
    // ------------------------------------------------------------------

    fn comm_sym(&mut self, handle: u32) -> u64 {
        if let Some(&id) = self.comm_ids.get(&handle) {
            return id;
        }
        // A communicator used before its id arrived can only be a pending
        // idup (§3.3.1); resolve it now, blocking if necessary — by the
        // time the app uses the comm, every member has deposited.
        if let Some(i) = self.pending_idups.iter().position(|&(h, _)| h == handle) {
            let (h, req) = self.pending_idups.remove(i);
            // Abort-aware bounded wait (a member's death unparks this
            // instead of spinning forever).
            let max = req.wait_complete();
            let sym = max + 1;
            self.comm_high_water = self.comm_high_water.max(sym);
            self.comm_ids.insert(h, sym);
            return sym;
        }
        panic!("communicator handle {handle} has no symbolic id (rank {})", self.rank);
    }

    fn poll_pending_idups(&mut self) {
        let mut i = 0;
        while i < self.pending_idups.len() {
            if let Some(max) = self.pending_idups[i].1.try_complete() {
                let (h, _) = self.pending_idups.remove(i);
                let sym = max + 1;
                self.comm_high_water = self.comm_high_water.max(sym);
                self.comm_ids.insert(h, sym);
            } else {
                i += 1;
            }
        }
    }

    fn assign_comm_id(&mut self, ctx: &TraceCtx<'_>, handle: u32) {
        // Paper §3.3.1: all-reduce the local maxima over the new
        // communicator's members; everyone adopts max + 1.
        let max = ctx.tool_allreduce_max(handle, self.comm_high_water);
        let sym = max + 1;
        self.comm_high_water = sym;
        self.comm_ids.insert(handle, sym);
    }

    fn dtype_sym(&mut self, handle: u32) -> u64 {
        if (handle as u64) < DERIVED_DTYPE_BASE {
            return handle as u64;
        }
        match self.dtype_ids.get(&handle) {
            Some(&id) => id,
            None => {
                let id = DERIVED_DTYPE_BASE + self.dtype_pool.acquire();
                self.dtype_ids.insert(handle, id);
                id
            }
        }
    }

    fn group_sym(&mut self, handle: u32) -> u64 {
        match self.group_ids.get(&handle) {
            Some(&id) => id,
            None => {
                let id = self.group_pool.acquire();
                self.group_ids.insert(handle, id);
                id
            }
        }
    }

    // ------------------------------------------------------------------
    // Request completion
    // ------------------------------------------------------------------

    /// The caller's rank in the call's (first) communicator argument; world
    /// rank when the record carries no communicator.
    fn caller_rank(&self, ctx: &TraceCtx<'_>, rec: &CallRec) -> i64 {
        rec.args
            .iter()
            .find_map(|a| match a {
                Arg::Comm(h) if *h != u32::MAX => ctx.comm_rank(*h).map(|r| r as i64),
                _ => None,
            })
            .unwrap_or(self.rank as i64)
    }

    /// The relative-rank base of a request's statuses: the caller's rank in
    /// the communicator the request was created on; `caller_rank` when the
    /// request is unknown.
    fn status_base(&self, raw: u64, caller_rank: i64) -> i64 {
        self.reqs.get(&raw).map_or(caller_rank, |e| e.comm_rank)
    }

    /// The base of the record's returned status `slot`: that of the request
    /// whose completion it reports.
    fn slot_base(
        &self,
        completions: Option<&Completions<'_, Arg>>,
        slot: usize,
        caller_rank: i64,
    ) -> i64 {
        let done = completions.and_then(|c| c.slot(slot));
        done.map_or(caller_rank, |d| self.status_base(d.request, caller_rank))
    }

    /// Releases the symbolic ids of the requests a call completed.
    /// Persistent requests keep theirs across completions and release it
    /// only at `MPI_Request_free`.
    fn release(&mut self, rec: &CallRec, shape: &Shape) {
        let frees = shape.completes.is_some_and(|c| c.frees);
        for done in shape.completed(&rec.args) {
            if let Entry::Occupied(entry) = self.reqs.entry(done.request) {
                if frees || !entry.get().persistent {
                    let entry = entry.remove();
                    self.req_pools.release(entry.pool, entry.sym);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Nondeterminism recording (record/replay side-channel)
    // ------------------------------------------------------------------

    /// Records what [`crate::nondet`] will derive from the decoded trace: a
    /// faithful recording satisfies `NondetLog::derive(trace) == recorded`,
    /// which is exactly the pure divergence oracle strict replay checks
    /// first. Both read a call's own event off its arguments the same way
    /// ([`call_event`]); which request a completion resolves is tracked
    /// here by raw id and there by symbol, independently. Must run before
    /// completed request ids are released.
    fn observe_nondet(&mut self, rec: &CallRec, shape: &Shape, caller_rank: i64) {
        let idx = self.calls;
        // The base the decoded trace will imply for a resolved status
        // source (`nondet::derive` reads `Relative` codes directly and
        // falls back to a world-rank base for `Absolute` ones).
        let relative = self.cfg.encoder.relative_ranks;
        let world = self.rank as i64;
        let implied = |base: i64| if relative { base } else { world };
        if let Some(event) = call_event(shape, &rec.args, implied(caller_rank)) {
            self.nondet.insert(idx, event);
        }
        // A wildcard `Irecv` resolves when its request completes.
        if let Some(raw) = shape.created(&rec.args).filter(|_| shape.is_wildcard(&rec.args)) {
            self.wildcard_irecvs.insert(raw, idx);
        }
        for done in shape.completed(&rec.args) {
            if let Some(irecv_idx) = self.wildcard_irecvs.remove(&done.request) {
                let base = implied(self.status_base(done.request, caller_rank));
                if let Some(event) = resolved_match::<Arg>(done.status, base) {
                    self.nondet.insert(irecv_idx, event);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Signature encoding
    // ------------------------------------------------------------------

    /// Encodes the call's signature into `self.sig`.
    fn encode(&mut self, rec: &CallRec, shape: &Shape, caller_rank: i64) {
        let mut cfg = self.cfg.encoder;
        // Relative-rank encoding applies to point-to-point src/dst ranks
        // (§3.4.2). Collective roots and leader ranks are the same value on
        // every rank already; encoding them relative would *destroy*
        // cross-rank signature sharing.
        if !shape.is_p2p() {
            cfg.relative_ranks = false;
        }
        // Each returned status belongs to a specific completed request,
        // whose creation communicator determines its relative-rank base.
        let completions = shape.completions(&rec.args);
        // Taken out while the id lookups below borrow the tracer, and put
        // back with its capacity for the next call.
        let mut w = std::mem::take(&mut self.sig);
        w.restart(rec.func.id());
        for (at, arg) in rec.args.iter().enumerate() {
            match arg {
                Arg::Int(v) => w.int(*v),
                Arg::Rank(r) => w.rank(*r, caller_rank, &cfg),
                Arg::Tag(t) => w.msg_tag(*t, caller_rank, &cfg),
                Arg::Comm(h) => {
                    // The new communicator of MPI_Comm_idup has no id yet —
                    // blocking here could deadlock the application, so its
                    // own record carries a "deferred" marker; the id is
                    // resolved by the time the communicator is used.
                    let sym = if *h == u32::MAX {
                        u64::MAX
                    } else if shape.object == Some(Object::NewComm(at as u8))
                        && self.pending_idups.iter().any(|&(p, _)| p == *h)
                    {
                        u64::MAX - 2
                    } else {
                        self.comm_sym(*h)
                    };
                    w.comm(sym);
                }
                Arg::Datatype(h) => {
                    let sym = self.dtype_sym(*h);
                    w.datatype(sym);
                }
                Arg::Op(o) => w.op(*o),
                Arg::Group(h) => {
                    let sym = self.group_sym(*h);
                    w.group(sym);
                }
                Arg::Request(raw) => match shape.creates.filter(|c| c.at as usize == at) {
                    Some(creates) => {
                        // The request argument is excluded from the pool
                        // signature (§3.4.3): use the bytes written so far.
                        // (Ablation: one shared pool uses an empty key.)
                        let key = if self.cfg.shared_request_pool { &[][..] } else { w.bytes() };
                        let (pool, sym) = self.req_pools.acquire(key);
                        self.reqs.insert(
                            *raw,
                            ReqEntry {
                                sym,
                                pool,
                                comm_rank: caller_rank,
                                persistent: creates.persistent,
                            },
                        );
                        w.request(sym);
                    }
                    None if *raw == u64::MAX => w.request(u64::MAX),
                    None => w.request(self.reqs.get(raw).map_or(u64::MAX - 1, |e| e.sym)),
                },
                Arg::RequestArr(raws) => w.request_arr(raws.iter().map(|r| {
                    (*r != u64::MAX).then(|| self.reqs.get(r).map_or(u64::MAX - 1, |e| e.sym))
                })),
                Arg::Ptr(addr) => {
                    let code = self.mem.encode_ptr(*addr);
                    w.ptr(code.segment, code.offset, &cfg);
                }
                Arg::Status { source, tag } => {
                    let base = self.slot_base(completions.as_ref(), 0, caller_rank);
                    w.status(*source, *tag, base, &cfg);
                }
                Arg::StatusArr(sts) => {
                    let base_of = |slot| self.slot_base(completions.as_ref(), slot, caller_rank);
                    w.status_arr_with(sts, base_of, &cfg);
                }
                Arg::IntArr(v) => w.int_arr(v),
                Arg::Color(c) => w.color(*c, caller_rank, &cfg),
                Arg::Key(k) => w.key(*k, caller_rank, &cfg),
                Arg::Str(s) => w.str(s),
            }
        }
        self.sig = w;
    }

    // ------------------------------------------------------------------
    // Resource governor
    // ------------------------------------------------------------------

    /// O(1) snapshot of the governed working set.
    fn usage(&self) -> ComponentBytes {
        // Conservative per-entry estimate for a captured call record.
        const CAPTURE_ENTRY_BYTES: usize = 256;
        ComponentBytes {
            cst: self.cst.approx_bytes(),
            grammar: self.grammar.approx_bytes(),
            timing: self.timing.as_ref().map_or(0, |t| t.approx_bytes()),
            memory: self.mem.approx_bytes(),
            capture: self.captured.len() * CAPTURE_ENTRY_BYTES,
        }
    }

    /// Applies governor transitions until the working set is back under
    /// control. Stages 1 and 2 shrink the live structures in place; stage
    /// 3 seals the current grammar as a segment and restarts empty.
    fn govern(&mut self) {
        if self.grammar.is_frozen() {
            self.governor.note_frozen_call();
        }
        loop {
            let usage = self.usage();
            let can_seal = self.grammar.input_len() > 0;
            let Some(stage) = self.governor.check(&usage, self.calls, can_seal) else {
                break;
            };
            match stage {
                DegradationStage::FreezeGrammar => self.grammar.freeze(),
                DegradationStage::AggregateTiming => {
                    // Per-signature aggregates live in the CST; only the
                    // per-call bin grammars are shed. A rank already in
                    // aggregate mode has nothing to drop (and must keep
                    // contributing `None` to the timing gathers).
                    if self.timing.take().is_some() {
                        self.timing_dropped = true;
                    }
                }
                DegradationStage::SealSegment => self.seal_segment(),
                // Not a memory rung; `check` never returns it — the net
                // client records it directly when delivery degrades.
                DegradationStage::LocalSpill => {}
            }
        }
    }

    /// Stage 3: serialize the current CST + grammar as a sealed segment
    /// (checkpoint codec) and restart them empty. The new segment stays
    /// frozen — the ladder never steps back down. Without a sink the
    /// segment is retained (modeled spill, excluded from the governed
    /// set); with one it is streamed out immediately and the rank keeps
    /// nothing.
    fn seal_segment(&mut self) {
        let flat = self.grammar.to_flat();
        let bytes = encode_checkpoint(flat.expanded_len(), &self.cst, &flat);
        match &self.sink {
            Some(sink) => {
                sink.push_segment(TraceSegment {
                    rank: self.rank,
                    seq: self.stream_seq,
                    sealed: true,
                    bytes,
                });
                self.stream_seq += 1;
            }
            None => self.sealed.push(bytes),
        }
        self.cst = Cst::new();
        self.grammar = Grammar::new();
        self.grammar.freeze();
        if self.metrics.is_enabled() {
            self.metrics.incr("governor.sealed_segments", 1);
        }
    }

    /// The rank's full-trace view: the live CST/grammar when nothing was
    /// sealed (the common path), or every sealed segment plus the live one
    /// assembled exactly as the collector assembles a streamed rank
    /// ([`RankSegments`]).
    fn assembled(&self) -> (Cst, FlatGrammar) {
        if self.sealed.is_empty() {
            return (self.cst.clone(), self.grammar.to_flat());
        }
        let mut cst = Cst::new();
        let mut segments = RankSegments::default();
        for bytes in &self.sealed {
            if let Ok(ck) = decode_checkpoint(bytes) {
                segments.push(&mut cst, &ck.cst, ck.grammar, true);
            }
        }
        if self.grammar.input_len() > 0 {
            segments.push(&mut cst, &self.cst, self.grammar.to_flat(), false);
        }
        (cst, segments.assemble())
    }

    /// Timing gather payloads: a rank whose governor collapsed per-call
    /// timing still contributes empty placeholders so the merge stays
    /// symmetric across ranks (rank 0 maps them to the no-timing
    /// sentinel using the degradation events).
    fn timing_payload(&self) -> (Option<FlatGrammar>, Option<FlatGrammar>) {
        if self.timing_dropped {
            (Some(FlatGrammar::empty()), Some(FlatGrammar::empty()))
        } else {
            (
                self.timing.as_ref().map(|t| t.duration_grammar()),
                self.timing.as_ref().map(|t| t.interval_grammar()),
            )
        }
    }

    /// This rank's merge input, as the batch finalize builds it: the
    /// assembled CST + grammar, timing payloads, call count, and the
    /// governor's degradation events. Harnesses that drive the merge
    /// entry points themselves (rather than through finalize) start
    /// here. Meaningless on a streaming tracer whose sealed segments
    /// were already pushed away.
    pub fn local_piece(&self) -> LocalPiece {
        let (cst, grammar) = self.assembled();
        let (duration, interval) = self.timing_payload();
        LocalPiece {
            rank: self.rank,
            cst,
            grammar,
            call_count: self.calls,
            duration,
            interval,
            encoder_cfg: self.cfg.encoder,
            events: self.governor.events().to_vec(),
        }
    }

    /// Streaming finalize: push the final (live) segment — unless every
    /// call already went out in sealed segments — then the completion
    /// marker. No batch merge runs; the collector driving the sink holds
    /// the merged state, so `result` stays `None` on every rank.
    fn finalize_streaming(&mut self, sink: &dyn SegmentSink) {
        if self.stream_seq == 0 || self.grammar.input_len() > 0 {
            let flat = self.grammar.to_flat();
            let bytes = encode_checkpoint(flat.expanded_len(), &self.cst, &flat);
            sink.push_segment(TraceSegment {
                rank: self.rank,
                seq: self.stream_seq,
                sealed: false,
                bytes,
            });
            self.stream_seq += 1;
        }
        let (duration, interval) = self.timing_payload();
        sink.complete_rank(RankCompletion {
            rank: self.rank,
            call_count: self.calls,
            // Declared so the collector can tell a complete stream from
            // one with segments dropped in flight or quarantined.
            segments: self.stream_seq,
            duration,
            interval,
            encoder_cfg: self.cfg.encoder,
            events: self.governor.events().to_vec(),
        });
        // Buffering sinks (the net client) push the completed stream
        // toward durability here; in-process sinks no-op.
        sink.flush();
    }
}

impl Tracer for PilgrimTracer {
    fn on_call(&mut self, ctx: &TraceCtx<'_>, rec: &CallRec, t_start: u64, t_end: u64) {
        let timer = Instant::now();
        self.poll_pending_idups();

        let shape = rec.func.shape();
        // Object lifecycle — communicator creation needs its id assigned
        // before (or as part of) encoding.
        if let Some(Object::NewComm(at)) = shape.object {
            if let Some(Arg::Comm(new)) = rec.args.get(at as usize) {
                match (shape.creates, rec.args.first()) {
                    // Non-blocking (`MPI_Comm_idup`): start the tool-lane
                    // all-reduce over the parent (same group as the
                    // duplicate) and resolve later.
                    (Some(_), Some(Arg::Comm(parent))) => {
                        let req = ctx.tool_iallreduce_max(*parent, self.comm_high_water);
                        self.pending_idups.push((*new, req));
                    }
                    (None, _) if *new != u32::MAX => self.assign_comm_id(ctx, *new),
                    _ => {}
                }
            }
        }

        // Encode the signature (assigns request/datatype/group ids).
        let t_encode = self.metrics.is_enabled().then(Instant::now);
        let caller_rank = self.caller_rank(ctx, rec);
        self.encode(rec, shape, caller_rank);
        let encode_dur = t_encode.map(|t| t.elapsed());

        // Record/replay side-channel — before the release below so
        // completion statuses still see their request's creation state.
        if self.cfg.record_nondet {
            self.observe_nondet(rec, shape, caller_rank);
        }

        // Post-encoding lifecycle: release ids of completed/freed objects.
        self.release(rec, shape);
        match shape.object {
            Some(Object::FreeDatatype(at)) => {
                if let Some(Arg::Datatype(h)) = rec.args.get(at as usize) {
                    if let Some(sym) = self.dtype_ids.remove(h) {
                        self.dtype_pool.release(sym - DERIVED_DTYPE_BASE);
                    }
                }
            }
            Some(Object::FreeGroup(at)) => {
                if let Some(Arg::Group(h)) = rec.args.get(at as usize) {
                    if let Some(sym) = self.group_ids.remove(h) {
                        self.group_pool.release(sym);
                    }
                }
            }
            Some(Object::FreeComm(at)) => {
                if let Some(Arg::Comm(h)) = rec.args.get(at as usize) {
                    // Comm ids are monotonic (never pooled): global
                    // consistency relies on max+1 assignment.
                    self.comm_ids.remove(h);
                }
            }
            Some(Object::NewComm(_)) | None => {}
        }

        // CST + CFG growth.
        let duration = t_end - t_start;
        let term = self.cst.observe(self.sig.bytes(), duration);
        let t_grammar = self.metrics.is_enabled().then(Instant::now);
        self.grammar.push(term);
        let grammar_dur = t_grammar.map(|t| t.elapsed());
        if let Some(t) = &mut self.timing {
            t.record(term, t_start, duration);
        }
        if self.cfg.capture_reference {
            self.captured.push(CapturedCall { rec: rec.clone(), caller_rank, term });
        }
        self.calls += 1;
        if self.governor.is_active() || self.metrics.is_enabled() {
            self.govern();
        }
        if let Some(iv) = self.cfg.checkpoint_interval {
            let calls = self.calls;
            if iv > 0 && calls.is_multiple_of(iv) {
                let (ccst, cgram) = self.assembled();
                let bytes = encode_checkpoint(calls, &ccst, &cgram);
                if self.metrics.is_enabled() {
                    self.metrics.incr("checkpoint.snapshots", 1);
                    self.metrics.set_gauge("checkpoint.bytes", bytes.len() as u64);
                }
                ctx.store_checkpoint(calls, bytes);
            }
        }
        let total = timer.elapsed();
        self.stats.intra += total;
        if self.metrics.is_enabled() {
            // Intercept is recorded residually so the three intra-process
            // stages sum exactly to `OverheadStats::intra`.
            let encode_dur = encode_dur.unwrap_or_default();
            let grammar_dur = grammar_dur.unwrap_or_default();
            self.metrics.add_stage(Stage::Encode, encode_dur);
            self.metrics.add_stage(Stage::GrammarInsert, grammar_dur);
            self.metrics
                .add_stage(Stage::Intercept, total.saturating_sub(encode_dur + grammar_dur));
            self.metrics.incr("calls", 1);
        }
    }

    fn on_alloc(&mut self, addr: u64, size: u64) {
        self.mem.on_alloc(addr, size);
    }

    fn on_free(&mut self, addr: u64) {
        self.mem.on_free(addr);
    }

    fn on_finalize(&mut self, ctx: &TraceCtx<'_>) {
        if self.finalized {
            return;
        }
        self.finalized = true;
        if let Some(sink) = self.sink.clone() {
            self.finalize_streaming(&*sink);
            return;
        }
        let piece = self.local_piece();
        self.local_size = piece.local_size_bytes();
        if self.metrics.is_enabled() {
            let gs = self.grammar.stats();
            self.metrics.set_gauge("cst.signatures", self.cst.len() as u64);
            self.metrics.set_gauge("cfg.rules", gs.rules as u64);
            self.metrics.set_gauge("cfg.symbols", gs.symbols as u64);
            self.metrics.set_gauge("cfg.digram_entries", gs.digram_entries as u64);
            self.metrics.set_gauge("cfg.utility_inlines", gs.utility_inlines);
            self.metrics.set_gauge("local.bytes", self.local_size as u64);
            self.governor.publish(&self.metrics);
        }
        let opts = merge::MergeOptions::new()
            .identity_check(self.cfg.merge_identity_check)
            .policy(merge::MergePolicy::with_timeout_ms(self.cfg.merge_timeout_ms))
            .metrics(&self.metrics);
        let outcome = merge::merge(ctx, piece, &opts);
        self.stats.merge(&outcome.stats);
        if let Some(e) = outcome.error {
            // This rank's own trace never entered the merge (its CST
            // broadcast parent vanished, or its gather payload was
            // dropped); rank 0's manifest records it as lost or
            // checkpoint-recovered.
            self.metrics.incr("merge.local_errors", 1);
            self.merge_error = Some(e);
        }
        self.result = outcome.trace;
    }
}
