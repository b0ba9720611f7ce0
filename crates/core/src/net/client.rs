//! The tracer-facing wire client: a never-blocking [`SegmentSink`] with
//! a bounded queue, a disk outbox, reconnect/resume, and degrade-to-
//! local-spill.

use std::collections::{HashMap, VecDeque};
use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mpi_sim::fault::hash4;

use super::codec::{
    lock, put_framed, read_handshake_frame, timed_out, write_framed, NetFrame, HELLO_MAX_FRAME,
    KIND_FINISHED, NET_VERSION, REJECT_AUTH_REQUIRED, REJECT_BAD_MAC, REJECT_LIMITS,
    REJECT_VERSION,
};
use crate::auth::{challenge_response, session_key, AuthKey, MacState, DIR_CLIENT, DIR_SERVER};
use crate::export::{persist_container, write_container};
use crate::frame::FrameReader;
use crate::governor::{Component, DegradationEvent, DegradationStage};
use crate::ingest::{RetryPolicy, SegmentSink};
use crate::layout;
use crate::merge::{RankCompletion, TraceSegment};
use crate::metrics::counter_set;
use crate::net_fault::NetFaultPlan;
use crate::recover::replay_union;
use crate::wal::{read_wal, WalRecord, WalWriter};

/// Frames the client may keep unacked before it pauses sending.
const ACK_WINDOW: usize = 1024;

/// Client-side knobs for [`NetClient::start`].
#[derive(Debug, Clone)]
pub struct NetClientConfig {
    /// Collector address (`host:port`).
    pub addr: String,
    /// Stable client identity; job ids are derived from it
    /// ([`crate::net_fault::stable_job_id`]).
    pub client_id: u64,
    /// In-memory frames queued before overflowing to the disk outbox.
    pub queue_capacity: usize,
    /// Reconnect budget: `max_attempts` *consecutive* connection
    /// failures degrade the client to local spill; `backoff` seeds the
    /// exponential reconnect delay.
    pub retry: RetryPolicy,
    /// Keep-alive interval on an idle connection.
    pub heartbeat: Duration,
    /// Connect / hello / ack-wait deadline.
    pub io_timeout: Duration,
    /// How long [`NetJobHandle::finish`] waits for the server's finish
    /// ack before degrading to local spill.
    pub finish_timeout: Duration,
    /// Where the outbox, the degrade WAL, and local containers live.
    /// Without it the client blocks on a full queue and *drops* on
    /// degrade (counted and reported, never silent).
    pub spill_dir: Option<PathBuf>,
    /// Seeded wire faults (inert by default).
    pub faults: NetFaultPlan,
    /// Pre-shared wire key, answered when the collector challenges.
    /// Without one, a challenge is a fatal typed error (the client
    /// degrades to local spill immediately instead of retrying).
    pub auth_key: Option<AuthKey>,
}

impl NetClientConfig {
    pub fn new(addr: impl Into<String>) -> Self {
        NetClientConfig {
            addr: addr.into(),
            client_id: 0,
            queue_capacity: 256,
            retry: RetryPolicy { max_attempts: 8, backoff: Duration::from_millis(10) },
            heartbeat: Duration::from_millis(500),
            io_timeout: Duration::from_secs(2),
            finish_timeout: Duration::from_secs(30),
            spill_dir: None,
            faults: NetFaultPlan::default(),
            auth_key: None,
        }
    }

    pub fn client_id(mut self, id: u64) -> Self {
        self.client_id = id;
        self
    }

    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n.max(1);
        self
    }

    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    pub fn heartbeat(mut self, d: Duration) -> Self {
        self.heartbeat = d;
        self
    }

    pub fn io_timeout(mut self, d: Duration) -> Self {
        self.io_timeout = d;
        self
    }

    pub fn finish_timeout(mut self, d: Duration) -> Self {
        self.finish_timeout = d;
        self
    }

    pub fn spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    pub fn faults(mut self, plan: NetFaultPlan) -> Self {
        self.faults = plan;
        self
    }

    pub fn auth_key(mut self, key: AuthKey) -> Self {
        self.auth_key = Some(key);
        self
    }
}

counter_set! {
    /// Snapshot of the client counters.
    pub struct NetClientStats, live LiveClientStats {
        connects: u64,
        connect_failures: u64,
        frames_sent: u64,
        /// Frames sent more than once (reconnect replay).
        retransmits: u64,
        acks: u64,
        /// Acks that matched no unacked frame (double-delivered receipts).
        stray_acks: u64,
        heartbeats: u64,
        /// Producer pushes that blocked on a full queue (no spill dir).
        backpressure: u64,
        /// Frames that overflowed to the disk outbox.
        disk_buffered: u64,
        /// Records appended to the local degrade WAL.
        spilled_records: u64,
        /// Records lost outright (degrade with no spill dir, or spill I/O
        /// failure) — always reported in the job outcome, never silent.
        dropped_records: u64,
        degraded: bool,
        /// `Busy` frames received: the collector shed this client's new
        /// jobs under overload.
        busy_sheds: u64,
        /// The collector rejected this client's handshake (wrong key,
        /// missing key, or version skew) — a fatal, typed condition.
        auth_failed: bool,
    }
}

/// Disk overflow for the send queue: `[len: u32 LE][frame bytes]`
/// repeated. A transit buffer, not a durability layer — no fsync; the
/// degrade WAL is the durable one.
struct Outbox {
    file: File,
    path: PathBuf,
    read_pos: u64,
    write_pos: u64,
    pending: u64,
}

impl Outbox {
    fn create(path: PathBuf) -> std::io::Result<Outbox> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(&path)?;
        Ok(Outbox { file, path, read_pos: 0, write_pos: 0, pending: 0 })
    }

    fn push(&mut self, frame: &NetFrame) -> std::io::Result<()> {
        let bytes = frame.encode();
        self.file.seek(SeekFrom::Start(self.write_pos))?;
        self.file.write_all(&(bytes.len() as u32).to_le_bytes())?;
        self.file.write_all(&bytes)?;
        self.write_pos += 4 + bytes.len() as u64;
        self.pending += 1;
        Ok(())
    }

    fn pop(&mut self) -> std::io::Result<Option<NetFrame>> {
        if self.pending == 0 {
            return Ok(None);
        }
        self.file.seek(SeekFrom::Start(self.read_pos))?;
        let mut len4 = [0u8; 4];
        self.file.read_exact(&mut len4)?;
        let len = u32::from_le_bytes(len4) as usize;
        let mut bytes = vec![0u8; len];
        self.file.read_exact(&mut bytes)?;
        self.read_pos += 4 + len as u64;
        self.pending -= 1;
        if self.pending == 0 {
            self.file.set_len(0)?;
            self.read_pos = 0;
            self.write_pos = 0;
        }
        match FrameReader::over(&bytes).next_frame(NetFrame::decode) {
            Some(Ok(frame)) => Ok(Some(frame)),
            Some(Err(e)) => Err(std::io::Error::other(format!("outbox frame: {e}"))),
            None => Err(std::io::Error::other("outbox frame truncated")),
        }
    }
}

#[derive(Default)]
struct ClientState {
    queue: VecDeque<NetFrame>,
    outbox: Option<Outbox>,
    /// Sent, not yet acked; retransmitted in order on every reconnect.
    unacked: VecDeque<NetFrame>,
    /// (job, nranks, identity_check) — replayed on every (re)connect.
    opens: Vec<(u64, usize, bool)>,
    /// job -> server's lossless verdict, set by the finish ack.
    acked_finished: HashMap<u64, bool>,
    /// A permanent injected partition tripped: every later connect fails.
    partitioned: bool,
    /// The collector shed a JobOpen with `Busy` on the last connection.
    busy_hit: bool,
    /// Fatal handshake rejection (wrong key / missing key / version
    /// skew): degrade immediately, retrying cannot help.
    auth_fatal: Option<String>,
    degraded: bool,
    shutdown: bool,
    /// Degrade WAL, opened at degrade time.
    spill: Option<WalWriter>,
    spill_path: Option<PathBuf>,
    /// Client-wide problems (spill failures, drops), echoed into every
    /// job outcome so loss is never silent.
    problems: Vec<String>,
}

impl ClientState {
    fn outbox_pending(&self) -> u64 {
        self.outbox.as_ref().map_or(0, |o| o.pending)
    }

    fn has_pending(&self) -> bool {
        !self.queue.is_empty() || self.outbox_pending() > 0 || !self.unacked.is_empty()
    }
}

struct ClientInner {
    cfg: NetClientConfig,
    state: Mutex<ClientState>,
    cv: Condvar,
    counters: LiveClientStats,
}

/// Everything [`NetJobHandle::finish`] reports about one job.
#[derive(Debug)]
pub struct NetJobOutcome {
    pub job: u64,
    /// The server acked the finish: the stream is durable (or at least
    /// merged) on the collector.
    pub delivered: bool,
    /// The server's lossless verdict, when delivered.
    pub lossless: Option<bool>,
    /// The locally-finalized container, when the client degraded and
    /// had enough buffered locally to rebuild one.
    pub local_path: Option<PathBuf>,
    pub problems: Vec<String>,
}

impl NetJobOutcome {
    /// True when the job's data is somewhere durable — delivered to the
    /// collector or finalized locally. False means loss (named in
    /// `problems`) or a stream the collector alone can still recover.
    pub fn accounted(&self) -> bool {
        self.delivered || self.local_path.is_some()
    }
}

/// A tracer-facing wire client. One background worker owns the socket;
/// any number of job handles feed it. Dropping the client (or calling
/// [`NetClient::shutdown`]) flushes and joins the worker.
pub struct NetClient {
    inner: Arc<ClientInner>,
    worker: Option<JoinHandle<()>>,
}

impl NetClient {
    /// Validates the spill dir (when configured) and starts the worker.
    /// Does not require the collector to be up — connecting is the
    /// worker's (retried) job.
    pub fn start(cfg: NetClientConfig) -> std::io::Result<NetClient> {
        if let Some(dir) = &cfg.spill_dir {
            fs::create_dir_all(dir)?;
        }
        let inner = Arc::new(ClientInner {
            cfg,
            state: Mutex::new(ClientState::default()),
            cv: Condvar::new(),
            counters: LiveClientStats::default(),
        });
        let worker_inner = inner.clone();
        let worker = std::thread::Builder::new()
            .name("pilgrim-net-client".into())
            .spawn(move || client_worker(worker_inner))?;
        Ok(NetClient { inner, worker: Some(worker) })
    }

    /// Opens a job. The wire id is derived from `(client_id, local_job)`
    /// so it stays stable across reconnects and collector restarts.
    pub fn open_job(&self, local_job: u64, nranks: usize, identity_check: bool) -> NetJobHandle {
        let job = crate::net_fault::stable_job_id(self.inner.cfg.client_id, local_job);
        {
            let mut st = lock(&self.inner.state);
            if !st.opens.iter().any(|(j, _, _)| *j == job) {
                st.opens.push((job, nranks, identity_check));
            }
        }
        self.inner.enqueue(NetFrame::JobOpen { job, nranks, identity_check });
        NetJobHandle { job, nranks, identity_check, inner: self.inner.clone() }
    }

    pub fn stats(&self) -> NetClientStats {
        self.inner.counters.snapshot()
    }

    /// Signals shutdown, waits for the worker to drain (or degrade), and
    /// returns the final counters.
    pub fn shutdown(mut self) -> NetClientStats {
        self.join_worker();
        self.inner.counters.snapshot()
    }

    fn join_worker(&mut self) {
        {
            let mut st = lock(&self.inner.state);
            st.shutdown = true;
            self.inner.cv.notify_all();
        }
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

impl Drop for NetClient {
    fn drop(&mut self) {
        self.join_worker();
    }
}

impl ClientInner {
    /// Queues a frame without ever blocking the producer when a spill
    /// dir is configured: full queue -> disk outbox; degraded -> straight
    /// to the local WAL. Without a spill dir a full queue blocks (after
    /// counting backpressure) — bounded memory is the harder promise.
    fn enqueue(&self, frame: NetFrame) {
        let mut st = lock(&self.state);
        loop {
            if st.degraded {
                self.spill_frame(&mut st, frame);
            } else if st.outbox.is_some() {
                self.outbox_push(&mut st, frame);
            } else if st.queue.len() < self.cfg.queue_capacity {
                st.queue.push_back(frame);
            } else if self.cfg.spill_dir.is_some() {
                self.activate_outbox(&mut st);
                continue;
            } else {
                self.counters.backpressure.fetch_add(1, Ordering::Relaxed);
                st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            self.cv.notify_all();
            return;
        }
    }

    fn activate_outbox(&self, st: &mut ClientState) {
        let Some(dir) = &self.cfg.spill_dir else { return };
        let path = dir.join(format!("outbox-{}.buf", self.cfg.client_id));
        match Outbox::create(path) {
            Ok(outbox) => st.outbox = Some(outbox),
            Err(e) => {
                // Can't overflow to disk: grow the queue rather than
                // block or drop, and say so.
                st.problems.push(format!("outbox unavailable: {e}"));
                st.queue.reserve(1);
            }
        }
    }

    fn outbox_push(&self, st: &mut ClientState, frame: NetFrame) {
        let pushed = match st.outbox.as_mut() {
            Some(o) => o.push(&frame),
            None => Ok(()),
        };
        match pushed {
            Ok(()) => {
                self.counters.disk_buffered.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                st.problems.push(format!("outbox write failed: {e}"));
                st.queue.push_back(frame);
            }
        }
    }

    /// Pops the next frame to transmit: memory queue first, then the
    /// disk outbox (global FIFO: the outbox only fills while the queue
    /// is saturated, and is drained before the queue refills).
    fn pop_next(&self, st: &mut ClientState) -> Option<NetFrame> {
        if let Some(frame) = st.queue.pop_front() {
            self.cv.notify_all();
            return Some(frame);
        }
        match st.outbox.as_mut()?.pop() {
            Ok(Some(frame)) => return Some(frame),
            Ok(None) => {}
            Err(e) => {
                self.counters.dropped_records.fetch_add(1, Ordering::Relaxed);
                st.problems.push(format!("outbox read failed: {e}"));
            }
        }
        // Drained (or unreadable): retire the file.
        if let Some(o) = st.outbox.take() {
            let _ = fs::remove_file(&o.path);
        }
        None
    }

    /// Irreversibly degrades to local spill: open the client WAL, flush
    /// everything pending into it, route all later frames there.
    fn degrade(&self, st: &mut ClientState, reason: &str) {
        if st.degraded {
            return;
        }
        st.degraded = true;
        self.counters.degraded.store(1, Ordering::Relaxed);
        st.problems.push(format!("degraded to local spill: {reason}"));
        if let Some(dir) = &self.cfg.spill_dir {
            let wal_dir = layout::wal_dir(dir);
            let created = fs::create_dir_all(&wal_dir);
            let path = wal_dir.join(format!("client-{}.wal", self.cfg.client_id));
            match created.and_then(|()| WalWriter::create(&path)) {
                Ok(w) => {
                    st.spill = Some(w);
                    st.spill_path = Some(path);
                }
                Err(e) => {
                    st.problems.push(format!("local spill WAL unavailable: {e}"));
                }
            }
        }
        // Every open first, so any replay of the WAL knows each job's
        // shape before its records.
        let opens = st.opens.clone();
        for (job, nranks, identity_check) in opens {
            self.spill_record(st, WalRecord::JobOpen { job, nranks, identity_check });
        }
        let pending: Vec<NetFrame> = st.unacked.drain(..).chain(st.queue.drain(..)).collect();
        for frame in pending {
            self.spill_frame(st, frame);
        }
        if let Some(mut outbox) = st.outbox.take() {
            while let Ok(Some(frame)) = outbox.pop() {
                self.spill_frame(st, frame);
            }
            let _ = fs::remove_file(&outbox.path);
        }
        self.cv.notify_all();
    }

    /// Converts one frame to its WAL record and spills it. Completions
    /// get a `LocalSpill` degradation event appended first, so the trace
    /// built from this WAL carries the degradation in its completeness
    /// manifest (`fidelity()` surfaces it as `net_spilled_ranks`).
    fn spill_frame(&self, st: &mut ClientState, frame: NetFrame) {
        let rec = match frame {
            NetFrame::Complete { job, mut done } => {
                done.events.push(DegradationEvent {
                    call_index: done.call_count,
                    stage: DegradationStage::LocalSpill,
                    component: Component::Network,
                    bytes: 0,
                });
                Some(WalRecord::Complete { job, done })
            }
            // `finish` decides when a job is settled locally.
            NetFrame::Finished { .. } => None,
            other => other.into_wal_record(),
        };
        if let Some(rec) = rec {
            self.spill_record(st, rec);
        }
    }

    fn spill_record(&self, st: &mut ClientState, rec: WalRecord) {
        match WalWriter::append_or_rewind(&mut st.spill, |w| w.append(&rec)) {
            Some(Ok(_)) => {
                self.counters.spilled_records.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                self.counters.dropped_records.fetch_add(1, Ordering::Relaxed);
            }
            Some(Err(e)) => {
                self.counters.dropped_records.fetch_add(1, Ordering::Relaxed);
                st.problems.push(format!("local spill append failed: {e}"));
            }
        }
    }
}

/// One job's stream endpoint over the wire — the networked counterpart
/// of [`JobHandle`](crate::ingest::JobHandle). Cheap to clone.
#[derive(Clone)]
pub struct NetJobHandle {
    job: u64,
    nranks: usize,
    identity_check: bool,
    inner: Arc<ClientInner>,
}

impl NetJobHandle {
    /// The job's stable wire id.
    pub fn job(&self) -> u64 {
        self.job
    }

    /// Declares the stream complete and waits for the server's finish
    /// ack. On degrade (already degraded, or the configured finish
    /// timeout expiring first) the client finalizes locally instead:
    /// replay its spill WAL, write `<spill_dir>/job-<id>.pilgrim`, and
    /// report exactly what happened.
    pub fn finish(&self) -> NetJobOutcome {
        self.inner.enqueue(NetFrame::Finished { job: self.job });
        let deadline = Instant::now() + self.inner.cfg.finish_timeout;
        let mut st = lock(&self.inner.state);
        loop {
            if let Some(&lossless) = st.acked_finished.get(&self.job) {
                return NetJobOutcome {
                    job: self.job,
                    delivered: true,
                    lossless: Some(lossless),
                    local_path: None,
                    problems: st.problems.clone(),
                };
            }
            if st.degraded {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                self.inner.degrade(&mut st, "finish timed out waiting for the collector");
                break;
            }
            let wait = (deadline - now).min(Duration::from_millis(100));
            let (guard, _) =
                self.inner.cv.wait_timeout(st, wait).unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
        self.local_finalize(&mut st)
    }

    /// Rebuilds the job from the client's local spill WAL and writes a
    /// container next to it.
    fn local_finalize(&self, st: &mut ClientState) -> NetJobOutcome {
        let mut problems = st.problems.clone();
        let local_path = match self.rebuild_locally(st, &mut problems) {
            Ok(path) => Some(path),
            Err(why) => {
                problems.push(why);
                None
            }
        };
        NetJobOutcome { job: self.job, delivered: false, lossless: None, local_path, problems }
    }

    /// The fallible body of [`local_finalize`](Self::local_finalize);
    /// `Err` carries the reason no local container could be written.
    fn rebuild_locally(
        &self,
        st: &mut ClientState,
        problems: &mut Vec<String>,
    ) -> Result<PathBuf, String> {
        let (Some(dir), Some(wal_path)) = (&self.inner.cfg.spill_dir, &st.spill_path) else {
            return Err("no local spill WAL; the degraded stream is lost".into());
        };
        let replay = read_wal(wal_path).map_err(|e| format!("local spill WAL unreadable: {e}"))?;
        // Dedup and order exactly like crash recovery: the WAL may hold
        // a frame twice (spilled after its first transmission was acked
        // but the ack lost) and segments from many ranks interleaved.
        let records: Vec<WalRecord> = replay
            .records
            .into_iter()
            .filter(|rec| {
                rec.job() == self.job
                    && matches!(rec, WalRecord::Segment { .. } | WalRecord::Complete { .. })
            })
            .collect();
        if records.is_empty() {
            return Err("nothing buffered locally; the collector may still hold the delivered \
                        stream"
                .into());
        }
        let clean = problems.len();
        let trace = replay_union(self.nranks, self.identity_check, records, problems).finalize();
        if trace.total_calls() == 0 {
            return Err("local replay rebuilt no calls".into());
        }
        let out_path = layout::job_container(dir, self.job);
        persist_container(&out_path, &write_container(&trace), false)
            .map_err(|e| format!("writing local container: {e}"))?;
        // Settle the job in the WAL so recovery on the client dir
        // trusts the container over a re-replay.
        if trace.completeness.is_complete() && problems.len() == clean {
            self.inner.spill_record(st, WalRecord::Finished { job: self.job });
        }
        Ok(out_path)
    }
}

impl SegmentSink for NetJobHandle {
    fn push_segment(&self, seg: TraceSegment) {
        self.inner.enqueue(NetFrame::Segment { job: self.job, seg });
    }

    fn complete_rank(&self, done: RankCompletion) {
        self.inner.enqueue(NetFrame::Complete { job: self.job, done });
    }

    fn flush(&self) {
        self.inner.cv.notify_all();
    }
}

enum ConnEnd {
    /// The socket broke (or a fault broke it); reconnect.
    Broken,
    /// Shutdown requested and everything pending is acked.
    Drained,
    /// The client degraded mid-connection.
    Degraded,
}

fn client_worker(inner: Arc<ClientInner>) {
    let mut attempt: u64 = 0;
    let mut consecutive: u32 = 0;
    let mut busy_conns: u32 = 0;
    loop {
        // Park until there is work (or forever, once degraded — the
        // producers write straight to the local WAL).
        {
            let mut st = lock(&inner.state);
            loop {
                if st.shutdown && (st.degraded || !st.has_pending()) {
                    return;
                }
                if !st.degraded && st.has_pending() {
                    break;
                }
                st = inner.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }
        match try_connect(&inner, attempt) {
            Ok(mut link) => {
                attempt += 1;
                consecutive = 0;
                inner.counters.connects.fetch_add(1, Ordering::Relaxed);
                match run_connection(&inner, &mut link) {
                    ConnEnd::Drained => return,
                    ConnEnd::Degraded => continue,
                    ConnEnd::Broken => {
                        let was_busy = {
                            let mut st = lock(&inner.state);
                            std::mem::take(&mut st.busy_hit)
                        };
                        if was_busy {
                            // Overload shed: back off, and give up after
                            // the same budget as reconnects — the shed
                            // jobs then finish via local spill.
                            busy_conns += 1;
                            if busy_conns >= inner.cfg.retry.max_attempts {
                                let mut st = lock(&inner.state);
                                inner.degrade(
                                    &mut st,
                                    "collector busy: new jobs shed under overload",
                                );
                                continue;
                            }
                            backoff_sleep(&inner, busy_conns, attempt);
                            continue;
                        }
                        // A connection that produced no acks at all is a
                        // failure for budget purposes: a collector that
                        // accepts and then dies must not dodge the
                        // degrade ladder forever.
                        if link.acks == 0 {
                            consecutive += 1;
                        }
                    }
                }
            }
            Err(_) => {
                attempt += 1;
                inner.counters.connect_failures.fetch_add(1, Ordering::Relaxed);
                // A typed handshake rejection is fatal: the collector is
                // alive and said no. Retrying with the same key (or no
                // key) cannot succeed, so degrade now.
                let fatal = {
                    let mut st = lock(&inner.state);
                    match st.auth_fatal.take() {
                        Some(reason) => {
                            inner.degrade(&mut st, &reason);
                            true
                        }
                        None => false,
                    }
                };
                if fatal {
                    continue;
                }
                consecutive += 1;
            }
        }
        if consecutive >= inner.cfg.retry.max_attempts {
            let mut st = lock(&inner.state);
            inner.degrade(&mut st, "reconnect budget exhausted");
            continue;
        }
        if consecutive > 0 {
            backoff_sleep(&inner, consecutive, attempt);
        }
    }
}

/// Exponential backoff with deterministic jitter, interruptible by
/// shutdown/degrade.
fn backoff_sleep(inner: &ClientInner, consecutive: u32, attempt: u64) {
    let base = inner.cfg.retry.backoff.max(Duration::from_millis(1));
    let exp = (consecutive.saturating_sub(1)).min(6);
    let mut wait = base * (1 << exp);
    let jitter_ms =
        hash4(0x00BA_C0FF, inner.cfg.client_id, attempt, 0) % (base.as_millis().max(1) as u64 + 1);
    wait += Duration::from_millis(jitter_ms);
    let deadline = Instant::now() + wait.min(Duration::from_secs(2));
    let mut st = lock(&inner.state);
    loop {
        if st.shutdown || st.degraded {
            return;
        }
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let (guard, _) =
            inner.cv.wait_timeout(st, deadline - now).unwrap_or_else(|e| e.into_inner());
        st = guard;
    }
}

/// One handshaken connection: the socket, its frame reader (holding
/// the server→client MAC chain when the session is authenticated) and
/// the client→server chain.
struct Link {
    stream: TcpStream,
    rbuf: FrameReader,
    send_mac: Option<MacState>,
    /// Ack batches applied on this connection, and when the last landed.
    acks: u64,
    last_ack: Instant,
    /// The ack drain's read buffer, reused for the life of the link.
    tmp: Vec<u8>,
}

/// Records a fatal typed handshake rejection: the worker degrades on it
/// instead of burning the retry ladder.
fn auth_fatal(inner: &ClientInner, reason: String) -> std::io::Error {
    inner.counters.auth_failed.store(1, Ordering::Relaxed);
    let mut st = lock(&inner.state);
    st.auth_fatal = Some(reason.clone());
    std::io::Error::other(reason)
}

/// Dials, speaks the hello (answering an auth challenge when the
/// collector sends one), and returns the ready link. Injected refusals
/// and a tripped partition fail here like a dead collector.
fn try_connect(inner: &ClientInner, attempt: u64) -> std::io::Result<Link> {
    {
        let st = lock(&inner.state);
        if st.partitioned {
            return Err(std::io::Error::other("partitioned (injected)"));
        }
    }
    if inner.cfg.faults.refuses_connect(inner.cfg.client_id, attempt) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::ConnectionRefused,
            "connection refused (injected)",
        ));
    }
    let addr = inner
        .cfg
        .addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::other("address resolved to nothing"))?;
    let timeout = inner.cfg.io_timeout;
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    let _ = stream.set_nodelay(true);
    let client_id = inner.cfg.client_id;
    stream.write_all(&NetFrame::Hello { version: NET_VERSION, client_id }.encode_first())?;
    let mut rbuf = FrameReader::new(HELLO_MAX_FRAME);
    let mut send_mac = None;
    match read_handshake_frame(&mut stream, &mut rbuf, timeout, true) {
        Some(NetFrame::HelloAck { version }) if version == NET_VERSION => {}
        Some(NetFrame::Challenge { nonce }) => {
            let Some(key) = inner.cfg.auth_key.clone() else {
                return Err(auth_fatal(
                    inner,
                    "collector requires authentication and no auth key is configured".into(),
                ));
            };
            let mac = challenge_response(&key, &nonce, client_id, NET_VERSION);
            stream.write_all(&NetFrame::AuthResponse { mac }.encode())?;
            match read_handshake_frame(&mut stream, &mut rbuf, timeout, false) {
                Some(NetFrame::HelloAck { version }) if version == NET_VERSION => {
                    let sk = session_key(&key, &nonce, client_id, NET_VERSION);
                    send_mac = Some(MacState::new(sk, DIR_CLIENT));
                    rbuf.set_mac(MacState::new(sk, DIR_SERVER));
                }
                Some(NetFrame::Reject { code }) => {
                    return Err(auth_fatal(
                        inner,
                        format!("collector rejected authentication ({})", reject_reason(code)),
                    ))
                }
                _ => return Err(std::io::Error::other("auth handshake failed")),
            }
        }
        Some(NetFrame::Reject { code }) => {
            return Err(auth_fatal(
                inner,
                format!("collector rejected hello ({})", reject_reason(code)),
            ))
        }
        _ => return Err(std::io::Error::other("hello handshake failed")),
    }
    // Past the hello the collector only ever sends small acks.
    rbuf.set_cap(usize::MAX);
    Ok(Link { stream, rbuf, send_mac, acks: 0, last_ack: Instant::now(), tmp: vec![0; 64 * 1024] })
}

fn reject_reason(code: u8) -> &'static str {
    match code {
        REJECT_VERSION => "protocol version skew",
        REJECT_AUTH_REQUIRED => "authentication required",
        REJECT_BAD_MAC => "bad key or replayed response",
        REJECT_LIMITS => "declared resource bound over the collector's ceiling",
        _ => "unknown reject code",
    }
}

fn run_connection(inner: &ClientInner, link: &mut Link) -> ConnEnd {
    // Replay job opens (the server dedups), then unacked frames in
    // order. Retransmits bypass `send_frame`, so frame faults (first
    // transmission only) do not re-fire and loop forever.
    let replay: Vec<NetFrame> = {
        let st = lock(&inner.state);
        let mut out: Vec<NetFrame> = Vec::new();
        for &(job, nranks, identity_check) in &st.opens {
            out.push(NetFrame::JobOpen { job, nranks, identity_check });
        }
        for frame in &st.unacked {
            inner.counters.retransmits.fetch_add(1, Ordering::Relaxed);
            out.push(frame.clone());
        }
        out
    };
    for frame in &replay {
        if write_framed(&mut link.stream, frame, &mut link.send_mac).is_err() {
            return ConnEnd::Broken;
        }
        inner.counters.frames_sent.fetch_add(1, Ordering::Relaxed);
    }
    loop {
        // Pick the next frame (or decide to idle) under the lock.
        let next: Option<NetFrame> = {
            let mut st = lock(&inner.state);
            if st.degraded {
                return ConnEnd::Degraded;
            }
            if st.shutdown && !st.has_pending() {
                return ConnEnd::Drained;
            }
            let next = if st.unacked.len() < ACK_WINDOW { inner.pop_next(&mut st) } else { None };
            if let Some(frame) = &next {
                st.unacked.push_back(frame.clone());
            }
            next
        };
        match next {
            Some(frame) => {
                // Keep sending while the window has room; apply only the
                // acks already here, so the collector can commit many
                // frames per sync instead of one per round trip.
                if send_frame(inner, link, &frame).is_err()
                    || drain_acks(inner, link, None).is_err()
                {
                    return ConnEnd::Broken;
                }
            }
            None => {
                let unacked_empty = lock(&inner.state).unacked.is_empty();
                if unacked_empty {
                    // Nothing in flight: idle on the condvar, heartbeat
                    // at the configured interval.
                    let mut st = lock(&inner.state);
                    if st.degraded {
                        return ConnEnd::Degraded;
                    }
                    if st.shutdown && !st.has_pending() {
                        return ConnEnd::Drained;
                    }
                    if !st.has_pending() {
                        let (guard, timeout) = inner
                            .cv
                            .wait_timeout(st, inner.cfg.heartbeat)
                            .unwrap_or_else(|e| e.into_inner());
                        st = guard;
                        if timeout.timed_out() && !st.has_pending() && !st.degraded {
                            drop(st);
                            let hb = write_framed(
                                &mut link.stream,
                                &NetFrame::Heartbeat,
                                &mut link.send_mac,
                            );
                            if hb.is_err() {
                                return ConnEnd::Broken;
                            }
                            inner.counters.heartbeats.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                } else if drain_acks(inner, link, Some(Duration::from_millis(50))).is_err()
                    || link.last_ack.elapsed() > inner.cfg.io_timeout
                {
                    // Everything sent, and either the socket broke or
                    // the collector went silent with frames in flight:
                    // treat as broken and replay.
                    return ConnEnd::Broken;
                }
            }
        }
    }
}

/// Transmits one frame for the first time (retransmits go out in
/// [`run_connection`]'s replay, fault-free), applying the plan's faults;
/// `Err(())` = the connection broke. When the session is authenticated, each
/// physical transmission is sealed separately (so an injected duplicate
/// carries a fresh, valid tag and the server's watermark — not the MAC
/// chain — dedups it, while a corrupted transmission fails the MAC
/// exactly as it fails the CRC).
fn send_frame(inner: &ClientInner, link: &mut Link, frame: &NetFrame) -> Result<(), ()> {
    let Link { stream, send_mac: mac, .. } = link;
    let faults = &inner.cfg.faults;
    if faults.is_active() {
        if let Some((job, rank, seq)) = frame.fault_key() {
            if faults.stalls(job, rank, seq) {
                std::thread::sleep(Duration::from_millis(faults.stall_ms));
            }
            if faults.partitions(job, rank, seq) {
                let mut st = lock(&inner.state);
                st.partitioned = true;
                return Err(());
            }
            if faults.cuts(job, rank, seq) {
                let mut wire = Vec::new();
                put_framed(&mut wire, frame, mac, &mut Vec::new());
                let _ = stream.write_all(&wire[..wire.len() / 2]);
                let _ = stream.flush();
                return Err(());
            }
            if let Some(off) = faults.corrupts(job, rank, seq) {
                let mut bad = Vec::new();
                put_framed(&mut bad, frame, mac, &mut Vec::new());
                let idx = (off % bad.len() as u64) as usize;
                bad[idx] ^= 0x20;
                // The server's CRC (or MAC) fails closed and drops the
                // connection; the clean retransmit goes through later.
                stream.write_all(&bad).map_err(|_| ())?;
                inner.counters.frames_sent.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            if faults.duplicates(job, rank, seq) {
                write_framed(stream, frame, mac).map_err(|_| ())?;
            }
        }
    }
    write_framed(stream, frame, mac).map_err(|_| ())?;
    inner.counters.frames_sent.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// Reads and applies the acks that arrive within `wait` — with `None`,
/// only those already received, without blocking — noting on the link
/// when any did. `Err(())` = the connection broke.
fn drain_acks(inner: &ClientInner, link: &mut Link, wait: Option<Duration>) -> Result<(), ()> {
    let read = match wait {
        Some(wait) => {
            link.stream.set_read_timeout(Some(wait)).map_err(|_| ())?;
            link.stream.read(&mut link.tmp)
        }
        None => {
            // Non-blocking for this one read only: frames are written
            // with blocking `write_all`.
            link.stream.set_nonblocking(true).map_err(|_| ())?;
            let read = link.stream.read(&mut link.tmp);
            link.stream.set_nonblocking(false).map_err(|_| ())?;
            read
        }
    };
    let mut progress = false;
    match read {
        Ok(0) => return Err(()),
        Ok(n) => {
            link.rbuf.extend(&link.tmp[..n]);
            loop {
                match link.rbuf.next_frame(NetFrame::decode) {
                    None => break,
                    Some(Err(_)) => return Err(()),
                    Some(Ok(NetFrame::Ack { job, a, b, of })) => {
                        apply_ack(inner, job, a, b, of);
                        progress = true;
                    }
                    Some(Ok(NetFrame::Busy { .. })) => {
                        // Overload shed: the server closes right after
                        // this. Note it so the worker backs off instead
                        // of charging the reconnect ladder.
                        inner.counters.busy_sheds.fetch_add(1, Ordering::Relaxed);
                        let mut st = lock(&inner.state);
                        st.busy_hit = true;
                    }
                    // The server sends nothing else post-hello; ignore.
                    Some(Ok(_)) => {}
                }
            }
        }
        Err(e) if timed_out(&e) => {}
        Err(_) => return Err(()),
    }
    if progress {
        link.acks += 1;
        link.last_ack = Instant::now();
    }
    Ok(())
}

fn apply_ack(inner: &ClientInner, job: u64, a: u64, b: u64, of: u8) {
    let mut st = lock(&inner.state);
    let idx = st.unacked.iter().position(|f| f.settled_by(job, a, b, of));
    match idx {
        Some(i) => {
            st.unacked.remove(i);
            inner.counters.acks.fetch_add(1, Ordering::Relaxed);
        }
        None => {
            inner.counters.stray_acks.fetch_add(1, Ordering::Relaxed);
        }
    }
    if of == KIND_FINISHED {
        st.acked_finished.insert(job, a == 1);
    }
    inner.cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_preserves_fifo_across_overflow() {
        let dir = crate::test_util::temp_dir("outbox");
        fs::create_dir_all(&dir).expect("mkdir");
        let mut o = Outbox::create(dir.join("outbox.buf")).expect("create");
        let frames: Vec<NetFrame> = (0..40)
            .map(|i| NetFrame::Segment {
                job: 1,
                seg: TraceSegment {
                    rank: 0,
                    seq: i,
                    sealed: false,
                    bytes: vec![i as u8; (i as usize % 7) + 1],
                },
            })
            .collect();
        // Interleave pushes and pops; order must hold throughout.
        for chunk in frames.chunks(8) {
            for f in chunk {
                o.push(f).expect("push");
            }
        }
        for f in &frames {
            let back = o.pop().expect("pop").expect("frame");
            assert_eq!(&back, f);
        }
        assert!(o.pop().expect("pop").is_none());
        // Fully drained: the file was reset for reuse.
        assert_eq!(o.write_pos, 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
