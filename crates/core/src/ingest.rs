//! Streaming multi-job trace ingest: the session layer behind the
//! `pilgrimd` collector binary.
//!
//! One [`IngestSession`] multiplexes many concurrent jobs (worlds). Each
//! job gets an id and a [`JobHandle`]; ranks stream their grammar
//! segments through the handle (it implements [`SegmentSink`], the seam
//! [`crate::tracer::PilgrimTracer`] pushes into mid-run) instead of
//! holding everything until a finalize-time batch merge. Internally the
//! session shards jobs across worker threads — CST interning for
//! different jobs runs in parallel — and every shard folds arriving
//! segments straight into that job's [`IncrementalMerger`], so the
//! collector holds one merged state per job rather than P full pieces.
//!
//! Ingest queues are bounded: a producer that outruns its shard first
//! counts a backpressure event, then blocks until the queue drains.
//! Finished jobs can spill crash-safely to `PGC1` containers (write to a
//! temporary file, `sync_all`, atomic rename — a crash mid-spill leaves
//! either the previous file or a `.tmp` orphan, never a torn container).
//!
//! ## Crash resilience
//!
//! The collector is long-lived infrastructure, so it assumes it *will*
//! die mid-run:
//!
//! - With [`IngestConfig::wal`] enabled, every stream message is appended
//!   to a per-shard CRC-framed write-ahead log ([`crate::wal`]) *before*
//!   it is folded, and [`IngestSession::recover`] replays those logs
//!   (plus any spilled or torn containers) after a crash, classifying
//!   each job as recovered / partial / lost ([`crate::recover`]).
//! - Segment folds run under panic isolation with bounded retry and
//!   exponential backoff ([`RetryPolicy`]); a segment that keeps killing
//!   its worker is moved to `quarantine/` and the job degrades (the
//!   rank reports lost in the completeness manifest) instead of wedging
//!   the shard.
//! - A job with a [`JobDesc::timeout`] is sealed at its deadline: the
//!   shard finalizes whatever has arrived — the way the governor seals
//!   over-budget ranks — and hands that outcome to the eventual
//!   [`IngestSession::finish_job`] instead of blocking on a stalled
//!   producer forever.
//!
//! All of it is driven deterministically by a seeded
//! [`IngestFaultPlan`](crate::ingest_fault::IngestFaultPlan) threaded
//! through [`IngestConfig::faults`] — the `chaos` binary's `ingest`
//! layer sweeps fault rates and asserts recovery.

use std::collections::HashMap;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::export::{persist_container, write_container};
use crate::ingest_fault::IngestFaultPlan;
use crate::layout;
use crate::metrics::counter_set;
use crate::recover::{recover_dir, RecoveryReport};
use crate::trace::GlobalTrace;
use crate::tracer::{PilgrimConfig, PilgrimTracer};
use crate::wal::{WalRecord, WalWriter};

// Re-exported here so `use pilgrim::ingest::*` covers the whole
// streaming API surface; the types live with the merger they feed.
pub use crate::merge::{IncrementalMerger, RankCompletion, SegmentError, TraceSegment};

/// Where a rank streams its trace: sealed segments as the governor
/// produces them, the final segment plus a completion marker at
/// finalize. Implementations must tolerate arbitrary interleaving
/// across ranks (within a rank, calls arrive in order).
pub trait SegmentSink: Send + Sync {
    /// Delivers one grammar segment.
    fn push_segment(&self, seg: TraceSegment);
    /// Marks a rank's stream complete.
    fn complete_rank(&self, done: RankCompletion);
    /// Invoked after [`complete_rank`](SegmentSink::complete_rank) at
    /// streaming finalize; buffering sinks (the net client) use it to
    /// push queued frames toward durability. In-process sinks need not
    /// override the default no-op.
    fn flush(&self) {}
}

/// Job identifier, unique within one [`IngestSession`].
pub type JobId = u64;

/// Why an [`IngestSession`] failed to start. Everything here is caught
/// up front, at [`IngestSession::new`] — not later, mid-spill, when the
/// jobs that needed the directory are already in flight.
#[derive(Debug)]
pub enum IngestError {
    /// The spill directory could not be created.
    SpillDir { path: PathBuf, source: std::io::Error },
    /// The spill directory exists but a write probe failed.
    NotWritable { path: PathBuf, source: std::io::Error },
    /// The WAL directory or a shard's log could not be created.
    Wal { path: PathBuf, source: std::io::Error },
    /// [`IngestConfig::wal`] without [`IngestConfig::spill_dir`]: the
    /// WAL lives under the spill directory, so there is nowhere to put
    /// it.
    WalRequiresSpillDir,
    /// A shard worker thread failed to spawn.
    Spawn(std::io::Error),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::SpillDir { path, source } => {
                write!(f, "creating spill dir {}: {source}", path.display())
            }
            IngestError::NotWritable { path, source } => {
                write!(f, "spill dir {} is not writable: {source}", path.display())
            }
            IngestError::Wal { path, source } => {
                write!(f, "creating write-ahead log {}: {source}", path.display())
            }
            IngestError::WalRequiresSpillDir => {
                write!(f, "the write-ahead log requires a spill_dir to live under")
            }
            IngestError::Spawn(e) => write!(f, "spawning ingest shard worker: {e}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::SpillDir { source, .. }
            | IngestError::NotWritable { source, .. }
            | IngestError::Wal { source, .. }
            | IngestError::Spawn(source) => Some(source),
            IngestError::WalRequiresSpillDir => None,
        }
    }
}

/// Bounded retry with exponential backoff for panic-isolated segment
/// folds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total fold attempts per segment (first try included) before the
    /// segment is quarantined.
    pub max_attempts: u32,
    /// Sleep before the second attempt; doubles on each further retry.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 2, backoff: Duration::from_millis(2) }
    }
}

impl RetryPolicy {
    pub fn max_attempts(mut self, n: u32) -> Self {
        self.max_attempts = n.max(1);
        self
    }

    pub fn backoff(mut self, d: Duration) -> Self {
        self.backoff = d;
        self
    }
}

/// Session configuration.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Worker threads; jobs are assigned round-robin by id, so CST
    /// interning for different jobs proceeds in parallel.
    pub shards: usize,
    /// Bounded depth of each shard's ingest queue. A full queue blocks
    /// the producing rank (after counting a backpressure event).
    pub queue_capacity: usize,
    /// When set, every finished job's trace is also spilled to
    /// `<dir>/job-<id>.pilgrim` as a checksummed `PGC1` container.
    pub spill_dir: Option<PathBuf>,
    /// Write-ahead-log every stream message to `<spill_dir>/wal/` so
    /// [`IngestSession::recover`] can rebuild in-flight jobs after a
    /// crash. Requires `spill_dir`.
    pub wal: bool,
    /// Seeded fault injection (inert by default).
    pub faults: IngestFaultPlan,
    /// Retry budget for panic-isolated segment folds.
    pub retry: RetryPolicy,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            shards: 2,
            queue_capacity: 256,
            spill_dir: None,
            wal: false,
            faults: IngestFaultPlan::default(),
            retry: RetryPolicy::default(),
        }
    }
}

impl IngestConfig {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n.max(1);
        self
    }

    pub fn spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    pub fn wal(mut self, on: bool) -> Self {
        self.wal = on;
        self
    }

    pub fn faults(mut self, plan: IngestFaultPlan) -> Self {
        self.faults = plan;
        self
    }

    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }
}

/// Description of one job for [`IngestSession::submit_world`].
#[derive(Debug, Clone)]
pub struct JobDesc {
    /// Label for the world's rank threads (`rank-3@<name>#<job>`).
    pub name: String,
    pub nranks: usize,
    /// Clock-jitter seed for the simulated world.
    pub seed: u64,
    /// Per-rank tracer configuration. A per-job `memory_budget` rides
    /// here: the governor then seals segments mid-run and the tracer
    /// streams them out immediately.
    pub config: PilgrimConfig,
    /// Deadline measured from job open; a job still incomplete when it
    /// expires is sealed and finalized with whatever arrived.
    pub timeout: Option<Duration>,
}

impl JobDesc {
    pub fn new(name: impl Into<String>, nranks: usize) -> Self {
        JobDesc {
            name: name.into(),
            nranks,
            seed: 0x5EED,
            config: PilgrimConfig::default(),
            timeout: None,
        }
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn config(mut self, config: PilgrimConfig) -> Self {
        self.config = config;
        self
    }

    pub fn timeout(mut self, d: Duration) -> Self {
        self.timeout = Some(d);
        self
    }
}

/// Everything the session reports about a finished job.
#[derive(Debug)]
pub struct JobOutcome {
    pub job: JobId,
    /// The job's merged trace (`None` only if the job id was unknown to
    /// its shard — a protocol error, reported in `problems`).
    pub trace: Option<GlobalTrace>,
    /// Total traced calls across the job's completed ranks.
    pub calls: u64,
    /// Segments the shard accepted for this job.
    pub segments: u64,
    /// Raw segment bytes the shard accepted for this job.
    pub ingested_bytes: u64,
    /// Where the trace was spilled, when the session spills.
    pub spill_path: Option<PathBuf>,
    /// True when the job hit its deadline and was sealed with whatever
    /// had arrived.
    pub sealed: bool,
    /// Per-message ingest errors ([`SegmentError`]), quarantines, spill
    /// and WAL failures. An empty list means every stream message was
    /// accepted.
    pub problems: Vec<String>,
}

impl JobOutcome {
    /// True when every message was accepted and every rank completed —
    /// the trace is exactly what a fault-free batch merge would produce.
    pub fn is_lossless(&self) -> bool {
        self.problems.is_empty()
            && !self.sealed
            && self.trace.as_ref().is_some_and(|t| t.completeness.is_complete())
    }
}

fn protocol_error_outcome(job: JobId, problem: String) -> JobOutcome {
    JobOutcome {
        job,
        trace: None,
        calls: 0,
        segments: 0,
        ingested_bytes: 0,
        spill_path: None,
        sealed: false,
        problems: vec![problem],
    }
}

counter_set! {
    /// Snapshot of the monotonic session counters, shared across shards and
    /// handles.
    pub struct IngestStats, live LiveIngestStats {
        /// Segments accepted across all jobs.
        segments: u64,
        /// Raw segment bytes accepted across all jobs.
        bytes: u64,
        /// Times a producer found its shard queue full and had to block.
        backpressure: u64,
        jobs_opened: u64,
        jobs_finished: u64,
        /// Jobs sealed at their deadline before every rank completed.
        jobs_sealed: u64,
        /// Records appended to shard write-ahead logs.
        wal_records: u64,
        /// Bytes appended to shard write-ahead logs.
        wal_bytes: u64,
        /// WAL appends that failed (and were truncated back to clean).
        wal_errors: u64,
        /// Worker panics caught while folding segments (injected or real).
        worker_panics: u64,
        /// Segment folds retried after a caught panic.
        retries: u64,
        /// Segments quarantined after exhausting the retry budget.
        quarantined: u64,
        /// Rank completions swallowed by injected stalls.
        stalled: u64,
        /// Container spills that failed (I/O error, short write, disk full).
        spill_errors: u64,
    }
}

/// What travels down a shard queue. `Record` carries a `Segment` or
/// `Complete` already in the shape the WAL logs, so it moves from the
/// producer to the log to the merger by value.
enum ShardMsg {
    Open { job: JobId, nranks: usize, identity_check: bool, timeout: Option<Duration> },
    Record(WalRecord),
    Finish { job: JobId, reply: SyncSender<JobOutcome> },
    Shutdown,
}

/// Per-job state held by a shard.
struct JobState {
    merger: IncrementalMerger,
    problems: Vec<String>,
    deadline: Option<Instant>,
}

/// A long-running multi-job ingest service.
///
/// Open jobs with [`IngestSession::open_job`] (or drive a whole
/// simulated world through [`IngestSession::submit_world`]), stream
/// segments through the returned [`JobHandle`], and collect the merged
/// trace with [`IngestSession::finish_job`]. Dropping the session shuts
/// the shard workers down.
pub struct IngestSession {
    senders: Vec<SyncSender<ShardMsg>>,
    workers: Vec<JoinHandle<()>>,
    next_job: AtomicU64,
    counters: Arc<LiveIngestStats>,
    /// Messages currently sitting in shard queues (a gauge, not a
    /// monotonic counter, so not part of [`IngestStats`]): incremented
    /// before a send is attempted, decremented when the shard dequeues —
    /// so it never underflows — and read by
    /// [`saturation`](IngestSession::saturation) for overload shedding.
    queued: Arc<AtomicU64>,
    spill_dir: Option<PathBuf>,
    /// Total queue capacity across shards, the denominator of
    /// [`saturation`](IngestSession::saturation).
    queue_slots: usize,
}

impl IngestSession {
    /// Starts the shard workers. The spill directory is validated up
    /// front — created if missing, probed for writability — so a bad
    /// path fails here with a typed [`IngestError`] instead of
    /// mid-spill, after the jobs that needed it are already in flight.
    pub fn new(cfg: IngestConfig) -> Result<Self, IngestError> {
        if let Some(dir) = &cfg.spill_dir {
            fs::create_dir_all(dir)
                .map_err(|e| IngestError::SpillDir { path: dir.clone(), source: e })?;
            let probe = dir.join(".pilgrim-write-probe");
            fs::write(&probe, b"pilgrim")
                .and_then(|()| fs::remove_file(&probe))
                .map_err(|e| IngestError::NotWritable { path: dir.clone(), source: e })?;
        }
        let wal_dir = match (&cfg.spill_dir, cfg.wal) {
            (_, false) => None,
            (None, true) => return Err(IngestError::WalRequiresSpillDir),
            (Some(dir), true) => {
                let wal_dir = layout::wal_dir(dir);
                fs::create_dir_all(&wal_dir)
                    .map_err(|e| IngestError::Wal { path: wal_dir.clone(), source: e })?;
                Some(wal_dir)
            }
        };
        let counters = Arc::new(LiveIngestStats::default());
        let queued = Arc::new(AtomicU64::new(0));
        let disk_used = Arc::new(AtomicU64::new(0));
        let mut senders = Vec::with_capacity(cfg.shards.max(1));
        let mut workers = Vec::with_capacity(cfg.shards.max(1));
        for shard in 0..cfg.shards.max(1) {
            let wal = match &wal_dir {
                Some(dir) => {
                    let path = dir.join(format!("shard-{shard}.wal"));
                    Some(
                        WalWriter::create(&path)
                            .map_err(|e| IngestError::Wal { path, source: e })?,
                    )
                }
                None => None,
            };
            let (tx, rx) = sync_channel(cfg.queue_capacity.max(1));
            let ctx = ShardCtx {
                counters: counters.clone(),
                queued: queued.clone(),
                spill_dir: cfg.spill_dir.clone(),
                wal,
                faults: cfg.faults.clone(),
                retry: cfg.retry,
                disk_used: disk_used.clone(),
            };
            let worker = std::thread::Builder::new()
                .name(format!("ingest-shard-{shard}"))
                .spawn(move || shard_worker(rx, ctx))
                .map_err(IngestError::Spawn)?;
            senders.push(tx);
            workers.push(worker);
        }
        Ok(IngestSession {
            senders,
            workers,
            next_job: AtomicU64::new(0),
            counters,
            queued,
            spill_dir: cfg.spill_dir,
            queue_slots: cfg.shards.max(1) * cfg.queue_capacity.max(1),
        })
    }

    /// Opens a new job of `nranks` ranks and returns its stream handle.
    pub fn open_job(&self, nranks: usize, identity_check: bool) -> JobHandle {
        self.open_job_with_deadline(nranks, identity_check, None)
    }

    /// [`open_job`](IngestSession::open_job) with a deadline: a job
    /// still incomplete `timeout` after opening is sealed — finalized
    /// with whatever arrived — instead of waiting on a stalled producer
    /// forever.
    pub fn open_job_with_deadline(
        &self,
        nranks: usize,
        identity_check: bool,
        timeout: Option<Duration>,
    ) -> JobHandle {
        let job = self.next_job.fetch_add(1, Ordering::Relaxed);
        self.open_at_shard(job, nranks, identity_check, timeout)
    }

    /// Opens a job under a caller-chosen id. The networked collector
    /// uses this so a job keeps one stable identity — in WAL records,
    /// spilled container names, and recovery — across client reconnects
    /// and even collector restarts, where a fresh session would
    /// otherwise hand out ids from zero again. The auto-assign counter
    /// is bumped past `job` so later [`open_job`](IngestSession::open_job)
    /// calls cannot collide with it.
    pub fn open_job_with_id(
        &self,
        job: JobId,
        nranks: usize,
        identity_check: bool,
        timeout: Option<Duration>,
    ) -> JobHandle {
        self.next_job.fetch_max(job.saturating_add(1), Ordering::Relaxed);
        self.open_at_shard(job, nranks, identity_check, timeout)
    }

    fn open_at_shard(
        &self,
        job: JobId,
        nranks: usize,
        identity_check: bool,
        timeout: Option<Duration>,
    ) -> JobHandle {
        let sender = self.senders[job as usize % self.senders.len()].clone();
        // Opens ride the same FIFO queue as segments, so a job is always
        // open at its shard before any of its segments arrive. The
        // queued gauge is bumped *before* the send so the shard's
        // matching decrement can never observe it at zero.
        self.queued.fetch_add(1, Ordering::Relaxed);
        if sender.send(ShardMsg::Open { job, nranks, identity_check, timeout }).is_err() {
            self.queued.fetch_sub(1, Ordering::Relaxed);
        }
        self.counters.jobs_opened.fetch_add(1, Ordering::Relaxed);
        JobHandle { job, sender, counters: self.counters.clone(), queued: self.queued.clone() }
    }

    /// Finalizes a job: the shard canonicalizes and combines the merged
    /// state, spills the container (when configured), and returns the
    /// outcome. Blocks until the shard has drained the job's queue.
    pub fn finish_job(&self, handle: &JobHandle) -> JobOutcome {
        let (reply_tx, reply_rx) = sync_channel(1);
        let _ = handle.sender.send(ShardMsg::Finish { job: handle.job, reply: reply_tx });
        let outcome = reply_rx.recv().unwrap_or_else(|_| {
            protocol_error_outcome(handle.job, "ingest shard hung up before replying".into())
        });
        self.counters.jobs_finished.fetch_add(1, Ordering::Relaxed);
        outcome
    }

    /// Runs a whole simulated world as one streaming job: every rank's
    /// tracer pushes its segments into the job's handle mid-run, and the
    /// job is finished (and spilled, when configured) once the world
    /// completes. Many worlds can run concurrently against one session
    /// from different threads — that is the point of the session layer.
    pub fn submit_world<B>(&self, desc: &JobDesc, body: B) -> JobOutcome
    where
        B: Fn(&mut mpi_sim::Env) + Send + Sync + 'static,
    {
        let handle = self.open_job_with_deadline(
            desc.nranks,
            desc.config.merge_identity_check,
            desc.timeout,
        );
        let world_cfg = mpi_sim::WorldConfig::new(desc.nranks).seed(desc.seed).label(format!(
            "{}#{}",
            desc.name,
            handle.job()
        ));
        let sink: Arc<dyn SegmentSink> = Arc::new(handle.clone());
        let tracer_cfg = desc.config;
        let _tracers = mpi_sim::World::run(
            &world_cfg,
            |rank| PilgrimTracer::new(rank, tracer_cfg).with_segment_sink(sink.clone()),
            body,
        );
        self.finish_job(&handle)
    }

    /// Rebuilds every job a crashed session left under `dir` — replays
    /// the shard write-ahead logs, reads back or salvages spilled
    /// containers, and classifies each job. See [`crate::recover`].
    pub fn recover(dir: &Path) -> std::io::Result<RecoveryReport> {
        recover_dir(dir)
    }

    /// Session-wide counters.
    pub fn stats(&self) -> IngestStats {
        self.counters.snapshot()
    }

    /// Messages currently waiting in shard queues (opens, segments,
    /// completions). A gauge, not a monotonic counter.
    pub fn queue_depth(&self) -> u64 {
        self.queued.load(Ordering::Relaxed)
    }

    /// Fraction of total shard-queue capacity currently occupied, in
    /// `0.0..=1.0` (clamped). The networked collector sheds new jobs
    /// when this crosses its configured threshold.
    pub fn saturation(&self) -> f64 {
        let depth = self.queue_depth() as f64;
        (depth / self.queue_slots as f64).min(1.0)
    }

    /// The configured spill directory, if any.
    pub fn spill_dir(&self) -> Option<&Path> {
        self.spill_dir.as_deref()
    }

    /// Graceful shutdown: drains and joins every shard worker, then
    /// returns the final counters. Unlike reading
    /// [`stats`](IngestSession::stats) while shards are still draining,
    /// the snapshot this returns is complete.
    pub fn shutdown(mut self) -> IngestStats {
        self.join_workers();
        self.stats()
    }

    fn join_workers(&mut self) {
        for tx in &self.senders {
            let _ = tx.send(ShardMsg::Shutdown);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for IngestSession {
    fn drop(&mut self) {
        self.join_workers();
    }
}

/// One job's stream endpoint: cheap to clone, shared by every rank of
/// the job's world. Implements [`SegmentSink`] with bounded-queue
/// backpressure — a full shard queue blocks the pushing rank after
/// counting a backpressure event, so producers can outrun the collector
/// only up to the queue depth.
#[derive(Clone)]
pub struct JobHandle {
    job: JobId,
    sender: SyncSender<ShardMsg>,
    counters: Arc<LiveIngestStats>,
    queued: Arc<AtomicU64>,
}

impl JobHandle {
    pub fn job(&self) -> JobId {
        self.job
    }

    fn send(&self, msg: ShardMsg) {
        // Bump the queued gauge before the send attempt so the shard's
        // decrement can never race it below zero; undo on disconnect.
        self.queued.fetch_add(1, Ordering::Relaxed);
        match self.sender.try_send(msg) {
            Ok(()) => {}
            Err(TrySendError::Full(msg)) => {
                self.counters.backpressure.fetch_add(1, Ordering::Relaxed);
                if self.sender.send(msg).is_err() {
                    self.queued.fetch_sub(1, Ordering::Relaxed);
                }
            }
            // Session shut down mid-job: nothing to deliver to.
            Err(TrySendError::Disconnected(_)) => {
                self.queued.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

impl SegmentSink for JobHandle {
    fn push_segment(&self, seg: TraceSegment) {
        self.send(ShardMsg::Record(WalRecord::Segment { job: self.job, seg }));
    }

    fn complete_rank(&self, done: RankCompletion) {
        self.send(ShardMsg::Record(WalRecord::Complete { job: self.job, done }));
    }
}

/// Everything a shard worker needs besides its queue: counters, durable
/// storage (spill + WAL), and the fault plan.
struct ShardCtx {
    counters: Arc<LiveIngestStats>,
    queued: Arc<AtomicU64>,
    spill_dir: Option<PathBuf>,
    wal: Option<WalWriter>,
    faults: IngestFaultPlan,
    retry: RetryPolicy,
    /// Injected disk meter, shared across shards: spill + WAL bytes
    /// against [`IngestFaultPlan::disk_capacity`].
    disk_used: Arc<AtomicU64>,
}

impl ShardCtx {
    /// Appends one record to the shard WAL, injecting short writes and
    /// disk exhaustion per the fault plan. A failed append truncates the
    /// log back to its last clean frame; if even that fails the WAL is
    /// disabled for the rest of the shard's life (counted, not fatal).
    fn log(&mut self, rec: &WalRecord) {
        // Tear injection targets segment appends (the large frames) and
        // is keyed on the segment itself, so two runs with the same plan
        // tear the same records no matter how the streams interleave.
        let (torn, estimate) = match rec {
            WalRecord::Segment { job, seg } => (
                self.faults.wal_append_fails(*job, seg.rank as u64, seg.seq as u64),
                seg.bytes.len() as u64 + 24,
            ),
            _ => (false, 24),
        };
        let disk_full = self.faults.disk_full(self.disk_used.load(Ordering::Relaxed), estimate);
        let appended = WalWriter::append_or_rewind(&mut self.wal, |wal| {
            if torn {
                wal.append_torn(rec)
            } else if disk_full {
                Err(std::io::Error::other("injected disk full"))
            } else {
                wal.append(rec)
            }
        });
        match appended {
            None => {}
            Some(Ok(bytes)) => {
                self.counters.wal_records.fetch_add(1, Ordering::Relaxed);
                self.counters.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
                self.disk_used.fetch_add(bytes, Ordering::Relaxed);
            }
            Some(Err(_)) => {
                self.counters.wal_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Earliest pending deadline across the shard's open jobs.
fn earliest_deadline(jobs: &HashMap<JobId, JobState>) -> Option<Instant> {
    jobs.values().filter_map(|s| s.deadline).min()
}

fn shard_worker(rx: Receiver<ShardMsg>, mut ctx: ShardCtx) {
    let mut jobs: HashMap<JobId, JobState> = HashMap::new();
    // Outcomes of deadline-sealed jobs, held for their eventual Finish.
    let mut sealed: HashMap<JobId, JobOutcome> = HashMap::new();
    loop {
        let msg = match earliest_deadline(&jobs) {
            Some(deadline) => {
                let wait = deadline.saturating_duration_since(Instant::now());
                match rx.recv_timeout(wait) {
                    Ok(msg) => msg,
                    Err(RecvTimeoutError::Timeout) => {
                        seal_expired(&mut jobs, &mut sealed, &mut ctx);
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            None => match rx.recv() {
                Ok(msg) => msg,
                Err(_) => break,
            },
        };
        if matches!(msg, ShardMsg::Open { .. } | ShardMsg::Record(_)) {
            ctx.queued.fetch_sub(1, Ordering::Relaxed);
        }
        match msg {
            ShardMsg::Open { job, nranks, identity_check, timeout } => {
                ctx.log(&WalRecord::JobOpen { job, nranks, identity_check });
                let merger = IncrementalMerger::new(nranks).identity_check(identity_check);
                jobs.insert(
                    job,
                    JobState {
                        merger,
                        problems: Vec::new(),
                        deadline: timeout.map(|t| Instant::now() + t),
                    },
                );
            }
            ShardMsg::Record(rec) => {
                let job = rec.job();
                if let Some(out) = sealed.get_mut(&job) {
                    out.problems.push(match &rec {
                        WalRecord::Segment { seg, .. } => format!(
                            "segment {}/{} arrived after the job was sealed",
                            seg.rank, seg.seq
                        ),
                        WalRecord::Complete { done, .. } => {
                            format!("rank {} completed after the job was sealed", done.rank)
                        }
                        _ => continue,
                    });
                    continue;
                }
                let Some(state) = jobs.get_mut(&job) else { continue };
                if let WalRecord::Complete { done, .. } = &rec {
                    if ctx.faults.completion_stalled(job, done.rank as u64) {
                        // A stalled producer: the completion never arrives,
                        // so neither the merger nor the WAL sees it.
                        ctx.counters.stalled.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                }
                // Log before folding: a segment that panics the worker
                // (or is quarantined) is still replayable after a crash.
                ctx.log(&rec);
                match rec {
                    WalRecord::Segment { seg, .. } => fold_segment(&mut ctx, job, state, seg),
                    WalRecord::Complete { done, .. } => {
                        let rank = done.rank;
                        if let Err(e) = state.merger.complete_rank(done) {
                            state.problems.push(format!("complete {rank}: {e}"));
                        }
                    }
                    _ => {}
                }
            }
            ShardMsg::Finish { job, reply } => {
                let outcome = if let Some(state) = jobs.remove(&job) {
                    finish_job(&mut ctx, job, state, false)
                } else if let Some(outcome) = sealed.remove(&job) {
                    outcome
                } else {
                    protocol_error_outcome(job, format!("job {job} is not open on this shard"))
                };
                let _ = reply.send(outcome);
            }
            ShardMsg::Shutdown => break,
        }
    }
}

/// Folds one segment under panic isolation: a caught panic (injected or
/// real) is retried with exponential backoff up to the policy's budget,
/// after which the segment is quarantined and the rank degrades.
fn fold_segment(ctx: &mut ShardCtx, job: JobId, state: &mut JobState, seg: TraceSegment) {
    let (rank, seq, len) = (seg.rank, seg.seq, seg.bytes.len());
    let mut attempt = 0u32;
    loop {
        let inject = ctx.faults.segment_poisoned(job, rank as u64, seq as u64)
            || (attempt == 0 && ctx.faults.segment_panics(job, rank as u64, seq as u64));
        // The injected panic fires before the merger is touched, and
        // `accept_segment` validates before it mutates, so a caught
        // panic leaves the merger consistent for the retry.
        let folded = catch_unwind(AssertUnwindSafe(|| {
            assert!(!inject, "injected worker panic folding segment {rank}/{seq}");
            state.merger.accept_segment(&seg)
        }));
        match folded {
            Ok(Ok(())) => {
                ctx.counters.segments.fetch_add(1, Ordering::Relaxed);
                ctx.counters.bytes.fetch_add(len as u64, Ordering::Relaxed);
                return;
            }
            Ok(Err(e)) => {
                // Protocol rejection, not a crash: no retry.
                state.problems.push(format!("segment {rank}/{seq}: {e}"));
                return;
            }
            Err(_) => {
                ctx.counters.worker_panics.fetch_add(1, Ordering::Relaxed);
                attempt += 1;
                if attempt >= ctx.retry.max_attempts {
                    quarantine_segment(ctx, job, state, &seg, attempt);
                    return;
                }
                ctx.counters.retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(ctx.retry.backoff * (1 << (attempt - 1)));
            }
        }
    }
}

/// Moves a segment that kept killing its worker out of the stream: its
/// payload goes to `quarantine/` for offline inspection, the WAL records
/// the deliberate sequence gap, and the rank degrades (its completion
/// will report [`SegmentError::MissingSegments`] and finalize marks it
/// lost) instead of the shard wedging on an endless panic loop.
fn quarantine_segment(
    ctx: &mut ShardCtx,
    job: JobId,
    state: &mut JobState,
    seg: &TraceSegment,
    attempts: u32,
) {
    ctx.counters.quarantined.fetch_add(1, Ordering::Relaxed);
    let mut note = String::new();
    if let Some(dir) = &ctx.spill_dir {
        let path = layout::quarantined_segment(dir, job, seg.rank, seg.seq);
        let wrote = fs::create_dir_all(layout::quarantine_dir(dir))
            .and_then(|()| fs::write(&path, &seg.bytes));
        note = match wrote {
            Ok(()) => format!(" (payload at {})", path.display()),
            Err(e) => format!(" (payload not preserved: {e})"),
        };
    }
    ctx.log(&WalRecord::Quarantine { job, rank: seg.rank, seq: seg.seq });
    state.problems.push(format!(
        "segment {}/{} quarantined after {attempts} worker panics{note}",
        seg.rank, seg.seq
    ));
}

/// Seals every job past its deadline: finalize with whatever arrived —
/// incomplete ranks report lost — and hold the outcome for the job's
/// eventual Finish.
fn seal_expired(
    jobs: &mut HashMap<JobId, JobState>,
    sealed: &mut HashMap<JobId, JobOutcome>,
    ctx: &mut ShardCtx,
) {
    let now = Instant::now();
    let expired: Vec<JobId> = jobs
        .iter()
        .filter(|(_, s)| s.deadline.is_some_and(|d| d <= now))
        .map(|(&job, _)| job)
        .collect();
    for job in expired {
        let Some(mut state) = jobs.remove(&job) else { continue };
        let total = state.merger.nranks();
        let done = state.merger.completed_ranks();
        state
            .problems
            .push(format!("job sealed at deadline with {}/{total} ranks incomplete", total - done));
        ctx.counters.jobs_sealed.fetch_add(1, Ordering::Relaxed);
        let outcome = finish_job(ctx, job, state, true);
        sealed.insert(job, outcome);
    }
}

fn finish_job(ctx: &mut ShardCtx, job: JobId, state: JobState, was_sealed: bool) -> JobOutcome {
    let JobState { merger, mut problems, .. } = state;
    let calls = merger.call_count();
    let segments = merger.segment_count();
    let ingested_bytes = merger.ingested_bytes();
    let trace = merger.finalize();
    let spill_path = spill_trace(ctx, job, &trace, &mut problems);
    ctx.log(&WalRecord::Finished { job });
    JobOutcome {
        job,
        trace: Some(trace),
        calls,
        segments,
        ingested_bytes,
        spill_path,
        sealed: was_sealed,
        problems,
    }
}

/// Spills a finished job's container, subject to injected short writes
/// and disk exhaustion. Failures are counted and reported in the job's
/// problems; a torn `.tmp` is deliberately left behind for salvage.
fn spill_trace(
    ctx: &mut ShardCtx,
    job: JobId,
    trace: &GlobalTrace,
    problems: &mut Vec<String>,
) -> Option<PathBuf> {
    let dir = ctx.spill_dir.as_deref()?;
    let path = layout::job_container(dir, job);
    let bytes = write_container(trace);
    if ctx.faults.disk_full(ctx.disk_used.load(Ordering::Relaxed), bytes.len() as u64) {
        ctx.counters.spill_errors.fetch_add(1, Ordering::Relaxed);
        problems.push(format!("spill {}: injected disk full", path.display()));
        return None;
    }
    let tear = ctx.faults.spill_fails(job);
    match persist_container(&path, &bytes, tear) {
        Ok(()) => {
            ctx.disk_used.fetch_add(bytes.len() as u64, Ordering::Relaxed);
            Some(path)
        }
        Err(e) => {
            ctx.counters.spill_errors.fetch_add(1, Ordering::Relaxed);
            problems.push(format!("spill {}: {e}", path.display()));
            None
        }
    }
}

/// A sink that drops everything (streaming disabled but a sink is
/// required structurally — e.g. benchmarking the tracer side alone).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl SegmentSink for NullSink {
    fn push_segment(&self, _seg: TraceSegment) {}
    fn complete_rank(&self, _done: RankCompletion) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recover::RecoveryState;
    use crate::test_util::{completion, segment, temp_dir};
    use crate::trace::RankStatus;

    #[test]
    fn concurrent_jobs_merge_independently() {
        let session = IngestSession::new(IngestConfig::new().shards(2)).unwrap();
        let a = session.open_job(2, true);
        let b = session.open_job(2, true);
        // Interleave the two jobs' streams.
        a.push_segment(segment(0, 0, &[b"a", b"b"]));
        b.push_segment(segment(1, 0, &[b"z"]));
        a.push_segment(segment(1, 0, &[b"a", b"b"]));
        b.push_segment(segment(0, 0, &[b"z"]));
        for r in 0..2 {
            a.complete_rank(completion(r, 2, 1));
            b.complete_rank(completion(r, 1, 1));
        }
        let oa = session.finish_job(&a);
        let ob = session.finish_job(&b);
        assert!(oa.is_lossless(), "job a problems: {:?}", oa.problems);
        assert!(ob.is_lossless(), "job b problems: {:?}", ob.problems);
        let ta = oa.trace.unwrap();
        let tb = ob.trace.unwrap();
        assert_eq!(ta.cst.len(), 2);
        assert_eq!(tb.cst.len(), 1);
        assert_eq!(ta.rank_lengths, vec![2, 2]);
        assert_eq!(tb.rank_lengths, vec![1, 1]);
        let stats = session.stats();
        assert_eq!(stats.segments, 4);
        assert_eq!(stats.jobs_opened, 2);
        assert_eq!(stats.jobs_finished, 2);
    }

    #[test]
    fn bounded_queue_applies_backpressure_without_loss() {
        let session = IngestSession::new(IngestConfig::new().shards(1).queue_capacity(1)).unwrap();
        let h = session.open_job(1, true);
        for seq in 0..64 {
            h.push_segment(TraceSegment { sealed: true, ..segment(0, seq, &[b"s"]) });
        }
        h.push_segment(segment(0, 64, &[b"s"]));
        h.complete_rank(completion(0, 65, 65));
        let out = session.finish_job(&h);
        assert!(out.is_lossless(), "problems: {:?}", out.problems);
        assert_eq!(out.segments, 65);
        assert_eq!(out.trace.unwrap().rank_lengths, vec![65]);
    }

    #[test]
    fn ingest_problems_are_reported_not_lost() {
        let session = IngestSession::new(IngestConfig::default()).unwrap();
        let h = session.open_job(1, true);
        h.push_segment(segment(5, 0, &[b"s"])); // unknown rank
        h.push_segment(segment(0, 0, &[b"s"]));
        h.complete_rank(completion(0, 1, 1));
        let out = session.finish_job(&h);
        assert!(!out.is_lossless());
        assert_eq!(out.problems.len(), 1);
        assert!(out.problems[0].contains("outside world"));
        // The good stream still merged.
        assert_eq!(out.trace.unwrap().rank_lengths, vec![1]);
    }

    #[test]
    fn submit_world_streams_a_whole_job() {
        let session = IngestSession::new(IngestConfig::default()).unwrap();
        let body = mpi_workloads::by_name("stencil2d", 4);
        let out = session.submit_world(&JobDesc::new("stencil2d", 4), move |env| body(env));
        assert!(out.is_lossless(), "problems: {:?}", out.problems);
        let trace = out.trace.unwrap();
        assert_eq!(trace.nranks, 4);
        assert!(trace.rank_lengths.iter().all(|&l| l > 0));
        assert_eq!(out.calls, trace.rank_lengths.iter().sum::<u64>());
        assert!(out.segments >= 4, "at least one final segment per rank");
    }

    #[test]
    fn finished_jobs_spill_valid_containers() {
        let dir = temp_dir("ingest-spill");
        let session = IngestSession::new(IngestConfig::new().spill_dir(&dir)).unwrap();
        let h = session.open_job(1, true);
        h.push_segment(segment(0, 0, &[b"a", b"b", b"a"]));
        h.complete_rank(completion(0, 3, 1));
        let out = session.finish_job(&h);
        let path = out.spill_path.clone().expect("spill path set");
        let bytes = fs::read(&path).unwrap();
        GlobalTrace::decode_container(&bytes).unwrap();
        assert_eq!(bytes, write_container(&out.trace.unwrap()));
        assert!(!path.with_extension("pilgrim.tmp").exists(), "tmp file must be renamed away");
        drop(session);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_spill_dir_fails_up_front_with_typed_errors() {
        // A file where the directory should be: create_dir_all fails.
        let file = std::env::temp_dir().join(format!("pilgrim-not-a-dir-{}", std::process::id()));
        fs::write(&file, b"occupied").unwrap();
        let err = IngestSession::new(IngestConfig::new().spill_dir(&file))
            .err()
            .expect("must fail up front");
        assert!(matches!(err, IngestError::SpillDir { .. }), "got {err}");
        let _ = fs::remove_file(&file);
        // WAL without a spill dir has nowhere to live.
        let err = IngestSession::new(IngestConfig::new().wal(true)).err().expect("must fail");
        assert!(matches!(err, IngestError::WalRequiresSpillDir), "got {err}");
    }

    #[test]
    fn transient_panic_is_retried_and_the_job_stays_lossless() {
        // Rate 1.0 panics every segment's *first* attempt; the retry
        // then folds it cleanly.
        let faults = IngestFaultPlan::new(11).segment_panic_rate(1.0);
        let cfg = IngestConfig::new().shards(1).faults(faults);
        let session = IngestSession::new(cfg).unwrap();
        let h = session.open_job(1, true);
        h.push_segment(segment(0, 0, &[b"a", b"b"]));
        h.complete_rank(completion(0, 2, 1));
        let out = session.finish_job(&h);
        assert!(out.is_lossless(), "problems: {:?}", out.problems);
        let stats = session.stats();
        assert_eq!(stats.worker_panics, 1);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.quarantined, 0);
    }

    #[test]
    fn poisoned_segment_is_quarantined_and_the_job_degrades() {
        let dir = temp_dir("ingest-poison");
        let faults = IngestFaultPlan::new(12).poison_rate(1.0);
        let cfg = IngestConfig::new().shards(1).spill_dir(&dir).faults(faults);
        let session = IngestSession::new(cfg).unwrap();
        let h = session.open_job(2, true);
        h.push_segment(segment(0, 0, &[b"a"]));
        h.push_segment(segment(1, 0, &[b"a"]));
        h.complete_rank(completion(0, 1, 1));
        h.complete_rank(completion(1, 1, 1));
        let out = session.finish_job(&h);
        assert!(!out.is_lossless());
        assert!(
            out.problems.iter().any(|p| p.contains("quarantined")),
            "problems: {:?}",
            out.problems
        );
        // Every rank's only segment was poisoned → both report lost.
        let trace = out.trace.unwrap();
        assert!(trace.completeness.ranks.iter().all(|s| matches!(s, RankStatus::Lost { .. })));
        let stats = session.stats();
        assert_eq!(stats.quarantined, 2);
        assert!(stats.worker_panics >= 2 * stats.quarantined);
        // Quarantined payloads are preserved on disk.
        assert_eq!(fs::read_dir(dir.join("quarantine")).unwrap().count(), 2);
        drop(session);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stalled_job_is_sealed_at_its_deadline() {
        let faults = IngestFaultPlan::new(13).stall_rate(1.0);
        let session = IngestSession::new(IngestConfig::new().shards(1).faults(faults)).unwrap();
        let h = session.open_job_with_deadline(1, true, Some(Duration::from_millis(30)));
        h.push_segment(segment(0, 0, &[b"a"]));
        h.complete_rank(completion(0, 1, 1)); // swallowed by the stall
        std::thread::sleep(Duration::from_millis(120));
        let out = session.finish_job(&h);
        assert!(out.sealed);
        assert!(!out.is_lossless());
        assert!(
            out.problems.iter().any(|p| p.contains("sealed at deadline")),
            "problems: {:?}",
            out.problems
        );
        let stats = session.stats();
        assert_eq!(stats.jobs_sealed, 1);
        assert_eq!(stats.stalled, 1);
    }

    #[test]
    fn wal_is_written_and_a_dropped_session_recovers_from_it() {
        let dir = temp_dir("ingest-wal");
        {
            let cfg = IngestConfig::new().shards(1).spill_dir(&dir).wal(true);
            let session = IngestSession::new(cfg).unwrap();
            let h = session.open_job(2, true);
            h.push_segment(segment(0, 0, &[b"a", b"b"]));
            h.push_segment(segment(1, 0, &[b"a", b"b"]));
            h.complete_rank(completion(0, 2, 1));
            h.complete_rank(completion(1, 2, 1));
            // Give the shard a moment to drain, then "crash": drop the
            // session without ever finishing the job — no container, no
            // Finished record, only the WAL.
            while session.stats().segments < 2 {
                std::thread::sleep(Duration::from_millis(5));
            }
            assert!(session.stats().wal_records >= 3);
        }
        let report = IngestSession::recover(&dir).unwrap();
        assert_eq!(report.jobs.len(), 1);
        let job = &report.jobs[0];
        assert_eq!(job.state, RecoveryState::Recovered, "problems: {:?}", job.problems);
        let trace = job.trace.as_ref().unwrap();
        assert_eq!(trace.rank_lengths, vec![2, 2]);
        assert!(trace.validate().is_empty());
        assert!(job.output.as_ref().is_some_and(|p| p.exists()));
        let _ = fs::remove_dir_all(&dir);
    }
}
