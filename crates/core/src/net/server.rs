//! The collector endpoint: accept loop, per-connection workers,
//! admission control, and ack-after-durable dispatch: the frames of one
//! read are staged into the connection's WAL as one batch, and an ack is
//! sent only after the `sync_data` that covers its record has returned.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::io::{Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::codec::{
    lock, put_framed, read_handshake_frame, timed_out, NetFrame, HELLO_MAX_FRAME, KIND_COMPLETE,
    KIND_FINISHED, KIND_JOB_OPEN, KIND_SEGMENT, MAX_NRANKS, NET_VERSION, REJECT_AUTH_REQUIRED,
    REJECT_BAD_MAC, REJECT_LIMITS, REJECT_VERSION,
};
use crate::auth::{
    challenge_response, ct_eq, fresh_nonce, session_key, AuthKey, MacState, DIR_CLIENT, DIR_SERVER,
};
use crate::frame::FrameReader;
use crate::ingest::{IngestSession, JobHandle, SegmentSink};
use crate::metrics::counter_set;
use crate::wal::{WalRecord, WalWriter};

/// Collector-side knobs for [`serve`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Per-connection read deadline: a connection silent this long is
    /// closed (clients heartbeat well inside it).
    pub io_timeout: Duration,
    /// How long a fresh connection gets to complete the hello.
    pub hello_timeout: Duration,
    /// Per-job seal deadline handed to the ingest session: an orphaned
    /// job (its client gone for good) is finalized with whatever
    /// arrived instead of staying open forever.
    pub job_timeout: Option<Duration>,
    /// Fault hook: hard-stop the server (sockets shut, no more acks, the
    /// session abandoned) the moment this many jobs have finished.
    /// Simulates the collector being killed for restart/recovery tests.
    pub kill_after_finished: Option<u64>,
    /// Pre-shared wire key. When set, every hello is challenged and
    /// every post-handshake frame must carry a chained MAC; without it
    /// the server accepts unauthenticated v1 peers (loopback mode).
    pub auth_key: Option<AuthKey>,
    /// Admission control: concurrent connections beyond this wait in
    /// the kernel accept queue (FIFO, so admission stays fair).
    pub max_connections: usize,
    /// Decode-size cap: a frame declaring a larger payload is rejected
    /// before its body is buffered, bounding per-connection memory.
    pub max_frame_len: usize,
    /// Per-connection byte budget per rolling second; a peer over it is
    /// disconnected (counted in `throttled`).
    pub max_conn_bytes_per_sec: Option<u64>,
    /// Per-connection frame budget per rolling second.
    pub max_conn_frames_per_sec: Option<u64>,
    /// Overload shedding: refuse *new* JobOpens with [`NetFrame::Busy`]
    /// while this many jobs are open and unfinished.
    pub max_open_jobs: Option<u64>,
    /// Overload shedding: refuse new JobOpens once the per-connection
    /// WALs hold this many bytes in total.
    pub max_wal_bytes: Option<u64>,
    /// Overload shedding: refuse new JobOpens while the ingest queue
    /// saturation ([`IngestSession::saturation`]) is at or above this
    /// fraction (e.g. `0.9`).
    pub shed_saturation: Option<f64>,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            io_timeout: Duration::from_secs(5),
            hello_timeout: Duration::from_secs(2),
            job_timeout: None,
            kill_after_finished: None,
            auth_key: None,
            max_connections: 256,
            max_frame_len: 64 << 20,
            max_conn_bytes_per_sec: None,
            max_conn_frames_per_sec: None,
            max_open_jobs: None,
            max_wal_bytes: None,
            shed_saturation: None,
        }
    }
}

impl NetServerConfig {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn io_timeout(mut self, d: Duration) -> Self {
        self.io_timeout = d;
        self
    }

    pub fn hello_timeout(mut self, d: Duration) -> Self {
        self.hello_timeout = d;
        self
    }

    pub fn job_timeout(mut self, d: Duration) -> Self {
        self.job_timeout = Some(d);
        self
    }

    pub fn kill_after_finished(mut self, n: u64) -> Self {
        self.kill_after_finished = Some(n);
        self
    }

    pub fn auth_key(mut self, key: AuthKey) -> Self {
        self.auth_key = Some(key);
        self
    }

    pub fn max_connections(mut self, n: usize) -> Self {
        self.max_connections = n.max(1);
        self
    }

    pub fn max_frame_len(mut self, n: usize) -> Self {
        self.max_frame_len = n.max(HELLO_MAX_FRAME);
        self
    }

    pub fn max_conn_bytes_per_sec(mut self, n: u64) -> Self {
        self.max_conn_bytes_per_sec = Some(n);
        self
    }

    pub fn max_conn_frames_per_sec(mut self, n: u64) -> Self {
        self.max_conn_frames_per_sec = Some(n);
        self
    }

    pub fn max_open_jobs(mut self, n: u64) -> Self {
        self.max_open_jobs = Some(n);
        self
    }

    pub fn max_wal_bytes(mut self, n: u64) -> Self {
        self.max_wal_bytes = Some(n);
        self
    }

    pub fn shed_saturation(mut self, frac: f64) -> Self {
        self.shed_saturation = Some(frac);
        self
    }
}

counter_set! {
    /// Snapshot of the server counters.
    pub struct NetServerStats, live LiveServerStats {
        connections: u64,
        /// Frames accepted off the wire (heartbeats included).
        frames: u64,
        acks: u64,
        /// Retransmits dropped by the `(job, rank, seq)` watermark.
        dup_frames: u64,
        /// Connections dropped on a torn or corrupt frame.
        torn_conns: u64,
        protocol_errors: u64,
        /// Connections that never completed a valid hello.
        bad_hello: u64,
        /// Connections closed at the idle read deadline.
        idle_closed: u64,
        /// Finish retransmits for jobs this server never saw data for
        /// (a finish replayed across a collector restart).
        stale_finishes: u64,
        heartbeats: u64,
        /// Failed conn-WAL appends (the frame was not acked).
        wal_errors: u64,
        jobs_opened: u64,
        jobs_finished: u64,
        /// Hellos rejected by the challenge–response (wrong key, replayed
        /// response, or no response at all).
        auth_failures: u64,
        /// Hellos rejected for a protocol version mismatch.
        version_skew: u64,
        /// New JobOpens refused with a `Busy` frame under overload.
        sheds: u64,
        /// Connections dropped for exceeding a byte/frame rate budget.
        throttled: u64,
        /// Connections dropped for trickling bytes without ever completing
        /// a frame (slow-loris writers).
        slow_loris_closed: u64,
        /// High-water mark of any one connection's reassembly buffer — the
        /// bounded-memory gate for the adversarial sweep.
        peak_conn_buffer: u64,
        /// Total bytes appended across the per-connection WALs (drives the
        /// `max_wal_bytes` shed threshold).
        wal_bytes: u64,
        /// `sync_data` calls on the per-connection WALs: one per group
        /// commit (the records of one read), so below the records logged
        /// whenever frames arrive faster than one sync.
        wal_syncs: u64,
    }
}

/// Per-job server state: the ingest handle plus the dedup watermarks.
struct NetJobEntry {
    handle: JobHandle,
    /// rank -> next expected segment seq.
    next_seq: HashMap<u64, u64>,
    completed: HashSet<u64>,
    /// Lossless verdict once finished (re-acked to retransmits).
    finished: Option<bool>,
}

struct ServeShared {
    session: IngestSession,
    cfg: NetServerConfig,
    wal_dir: Option<PathBuf>,
    conn_counter: AtomicU64,
    stop: AtomicBool,
    /// Graceful-shutdown mode: stop accepting, let connection workers
    /// flush what they have buffered, then exit.
    draining: AtomicBool,
    active_conns: AtomicU64,
    counters: LiveServerStats,
    jobs: Mutex<HashMap<u64, Arc<Mutex<NetJobEntry>>>>,
    conns: Mutex<HashMap<u64, TcpStream>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// Releases a connection's admission slot and its duped stream however
/// the worker exits. Dropping the stream clone matters: keeping it
/// would hold a closed peer's fd in CLOSE_WAIT for the life of the
/// server, so a reconnect flood would exhaust fds.
struct ConnGuard {
    shared: Arc<ServeShared>,
    id: u64,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        lock(&self.shared.conns).remove(&self.id);
        self.shared.active_conns.fetch_sub(1, Ordering::SeqCst);
    }
}

impl ServeShared {
    /// Must a *new* job be refused right now? Already-accepted jobs are
    /// never shed.
    fn saturated(&self) -> bool {
        let c = &self.counters;
        let open = c
            .jobs_opened
            .load(Ordering::Relaxed)
            .saturating_sub(c.jobs_finished.load(Ordering::Relaxed));
        self.cfg.max_open_jobs.is_some_and(|max| open >= max)
            || self.cfg.max_wal_bytes.is_some_and(|max| c.wal_bytes.load(Ordering::Relaxed) >= max)
            || self.cfg.shed_saturation.is_some_and(|frac| self.session.saturation() >= frac)
    }

    /// Stops accepting and shuts every connection, both directions.
    /// Dispatch in flight fails on its next socket op — an intentionally
    /// abrupt stop, because the kill hook uses the same path.
    fn initiate_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for conn in lock(&self.conns).values() {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }

    /// Joins worker threads that have already exited, so a long-running
    /// server's handle list tracks *live* connections instead of
    /// growing with every reconnect ever made.
    fn reap_finished_threads(&self) {
        let mut threads = lock(&self.threads);
        let mut i = 0;
        while i < threads.len() {
            if threads[i].is_finished() {
                let t = threads.swap_remove(i);
                let _ = t.join();
            } else {
                i += 1;
            }
        }
    }

    /// Looks up or creates the job entry. Creation opens the job on the
    /// ingest session under its stable wire id.
    fn job_entry(&self, job: u64, nranks: usize, identity_check: bool) -> Arc<Mutex<NetJobEntry>> {
        let mut jobs = lock(&self.jobs);
        jobs.entry(job)
            .or_insert_with(|| {
                self.counters.jobs_opened.fetch_add(1, Ordering::Relaxed);
                let handle = self.session.open_job_with_id(
                    job,
                    nranks,
                    identity_check,
                    self.cfg.job_timeout,
                );
                Arc::new(Mutex::new(NetJobEntry {
                    handle,
                    next_seq: HashMap::new(),
                    completed: HashSet::new(),
                    finished: None,
                }))
            })
            .clone()
    }

    /// The entry of an already-open job; a record for a job this
    /// server never opened is a protocol error (`Err(())` = close).
    fn open_job(&self, job: u64) -> Result<Arc<Mutex<NetJobEntry>>, ()> {
        lock(&self.jobs).get(&job).cloned().ok_or_else(|| {
            self.counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
        })
    }

    /// Opens the next per-connection WAL (`wal/conn-<k>.wal`). `None`
    /// when the session has no spill dir (no durability — acks then mean
    /// "merged in memory" only) or when creation fails (counted).
    fn new_conn_wal(&self) -> Option<WalWriter> {
        let dir = self.wal_dir.as_ref()?;
        let k = self.conn_counter.fetch_add(1, Ordering::Relaxed);
        match WalWriter::create(dir.join(format!("conn-{k}.wal"))) {
            Ok(w) => Some(w),
            Err(_) => {
                self.counters.wal_errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }
}

/// A running collector endpoint, returned by [`serve`].
pub struct ServeHandle {
    addr: SocketAddr,
    shared: Arc<ServeShared>,
    accept: Option<JoinHandle<()>>,
}

impl ServeHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn stats(&self) -> NetServerStats {
        self.shared.counters.snapshot()
    }

    /// Jobs finished so far (drives `--expect-jobs` style polling).
    pub fn finished_jobs(&self) -> u64 {
        self.shared.counters.jobs_finished.load(Ordering::Relaxed)
    }

    /// True once the server has stopped accepting — normal stop or the
    /// [`NetServerConfig::kill_after_finished`] hook firing.
    pub fn stopped(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Stops the server: sockets shut, threads joined, session dropped.
    /// Unfinished jobs are abandoned *without* being finalized — their
    /// durable record is the per-connection WALs, exactly as if the
    /// process had been killed; `trace_tool recover` rebuilds them.
    pub fn stop(mut self) -> NetServerStats {
        self.join_all();
        self.shared.counters.snapshot()
    }

    /// Graceful shutdown: stop accepting, give live connections up to
    /// `grace` to flush the frames they have already received (an ack is
    /// sent only after the `sync_data` that covers its record in the conn
    /// WAL has returned, so everything acked is durable), then stop.
    /// Connections still mid-stream after the grace period are cut like a
    /// plain [`ServeHandle::stop`] — their clients reconnect elsewhere or
    /// degrade to local spill.
    pub fn drain(mut self, grace: Duration) -> NetServerStats {
        self.shared.draining.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + grace;
        while self.shared.active_conns.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        self.join_all();
        self.shared.counters.snapshot()
    }

    fn join_all(&mut self) {
        self.shared.initiate_stop();
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        let threads: Vec<JoinHandle<()>> = lock(&self.shared.threads).drain(..).collect();
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.join_all();
    }
}

/// Runs a collector endpoint on `listener`, feeding `session`. Returns
/// immediately; connections are handled on background threads.
///
/// The session should be created with `wal(false)`: [`serve`] writes its
/// own per-connection WALs under `<spill_dir>/wal/` (an ack is sent only
/// after the `sync_data` that covers its record has returned), and a
/// session-level WAL would log every record a second time.
/// Existing `conn-*.wal` files from a previous incarnation are left
/// untouched — recovery reads the union.
pub fn serve(
    listener: TcpListener,
    session: IngestSession,
    cfg: NetServerConfig,
) -> std::io::Result<ServeHandle> {
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let wal_dir = session.spill_dir().map(crate::layout::wal_dir);
    if let Some(dir) = &wal_dir {
        fs::create_dir_all(dir)?;
    }
    let conn_start = wal_dir.as_deref().map_or(0, next_conn_index);
    let shared = Arc::new(ServeShared {
        session,
        cfg,
        wal_dir,
        conn_counter: AtomicU64::new(conn_start),
        stop: AtomicBool::new(false),
        draining: AtomicBool::new(false),
        active_conns: AtomicU64::new(0),
        counters: LiveServerStats::default(),
        jobs: Mutex::new(HashMap::new()),
        conns: Mutex::new(HashMap::new()),
        threads: Mutex::new(Vec::new()),
    });
    let accept_shared = shared.clone();
    let accept = std::thread::Builder::new()
        .name("pilgrim-net-accept".into())
        .spawn(move || accept_loop(listener, accept_shared))?;
    Ok(ServeHandle { addr, shared, accept: Some(accept) })
}

/// First free `conn-<k>.wal` index, so a restarted server appends new
/// connection logs next to a previous incarnation's instead of
/// truncating them (the WAL union is the durable state).
fn next_conn_index(wal_dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(wal_dir) else { return 0 };
    entries
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name();
            let name = name.to_str()?;
            name.strip_prefix("conn-")?.strip_suffix(".wal")?.parse::<u64>().ok()
        })
        .map(|k| k + 1)
        .max()
        .unwrap_or(0)
}

fn accept_loop(listener: TcpListener, shared: Arc<ServeShared>) {
    loop {
        if shared.stop.load(Ordering::SeqCst) || shared.draining.load(Ordering::SeqCst) {
            return;
        }
        shared.reap_finished_threads();
        // Admission control: at the connection ceiling, stop accepting.
        // Waiting peers stay in the kernel's FIFO accept backlog, so
        // admission order is fair when slots free up.
        if shared.active_conns.load(Ordering::SeqCst) >= shared.cfg.max_connections as u64 {
            std::thread::sleep(Duration::from_millis(2));
            continue;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                // The pre-increment counter value doubles as the
                // connection's id in `conns` (unique per process).
                let id = shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                shared.active_conns.fetch_add(1, Ordering::SeqCst);
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_nodelay(true);
                if let Ok(clone) = stream.try_clone() {
                    lock(&shared.conns).insert(id, clone);
                }
                let conn_shared = shared.clone();
                let guard = ConnGuard { shared: shared.clone(), id };
                let spawned =
                    std::thread::Builder::new().name("pilgrim-net-conn".into()).spawn(move || {
                        let _guard = guard;
                        conn_worker(conn_shared, stream);
                    });
                // On spawn failure the closure (and the guard in it) is
                // dropped, releasing the admission slot.
                if let Ok(t) = spawned {
                    lock(&shared.threads).push(t);
                }
            }
            // Nothing waiting (`WouldBlock`) or a transient accept error.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn conn_worker(shared: Arc<ServeShared>, mut stream: TcpStream) {
    // The hello phase runs under a tight decode cap; the negotiated cap
    // applies only after the peer has proven itself.
    let mut rbuf = FrameReader::new(HELLO_MAX_FRAME);
    let Some(send_mac) = server_hello(&shared, &mut stream, &mut rbuf) else {
        shared.counters.bad_hello.fetch_add(1, Ordering::Relaxed);
        return;
    };
    rbuf.set_cap(shared.cfg.max_frame_len);
    if stream.set_read_timeout(Some(shared.cfg.io_timeout)).is_err() {
        return;
    }
    // The conn WAL is created only *after* a successful (and, with a
    // key, authenticated) hello: a rejected peer leaves no partial WAL
    // state behind.
    let mut conn = Conn {
        shared: &shared,
        stream,
        send_mac,
        wal: shared.new_conn_wal(),
        opened: HashSet::new(),
        batch: Batch::default(),
        acks: Vec::new(),
        out: Vec::new(),
        payload: Vec::new(),
    };
    let mut tmp = vec![0u8; 64 * 1024];
    // Rolling one-second rate window and the slow-loris clock.
    let mut window_start = Instant::now();
    let mut window_bytes: u64 = 0;
    let mut window_frames: u64 = 0;
    let mut last_whole_frame = Instant::now();
    let mut drain_mode = false;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        if !drain_mode && shared.draining.load(Ordering::SeqCst) {
            // Graceful shutdown: flush what the peer already sent, then
            // exit at the first quiet read instead of the idle deadline.
            drain_mode = true;
            if conn.stream.set_read_timeout(Some(Duration::from_millis(30))).is_err() {
                return;
            }
        }
        match conn.stream.read(&mut tmp) {
            Ok(0) => return,
            Ok(n) => {
                rbuf.extend(&tmp[..n]);
                shared
                    .counters
                    .peak_conn_buffer
                    .fetch_max(rbuf.pending() as u64, Ordering::Relaxed);
                // Every whole frame this read produced is one batch: each
                // is staged, then one commit and one write of the acks.
                // Every way out commits and acks what came before.
                loop {
                    match rbuf.next_frame(NetFrame::decode) {
                        None => break,
                        Some(Err(_)) => {
                            // Torn or corrupt frame (bad CRC or MAC):
                            // fail closed. The client reconnects and
                            // retransmits from the last ack.
                            shared.counters.torn_conns.fetch_add(1, Ordering::Relaxed);
                            let _ = conn.flush(None);
                            return;
                        }
                        Some(Ok(frame)) => {
                            shared.counters.frames.fetch_add(1, Ordering::Relaxed);
                            window_frames += 1;
                            last_whole_frame = Instant::now();
                            match conn.dispatch(frame) {
                                Ok(None) => {}
                                Ok(Some(reply)) => {
                                    let _ = conn.flush(Some(&reply));
                                    return;
                                }
                                Err(()) => {
                                    let _ = conn.flush(None);
                                    return;
                                }
                            }
                        }
                    }
                }
                if conn.flush(None).is_err() {
                    return;
                }
                // Slow-loris kill: bytes keep trickling in (so the idle
                // read deadline never fires) but no whole frame has
                // arrived within the io window.
                if rbuf.pending() > 0 && last_whole_frame.elapsed() > shared.cfg.io_timeout {
                    shared.counters.slow_loris_closed.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                // Per-connection rate budgets over a rolling second.
                // Judge the window that just accumulated *before*
                // rolling it: zeroing first would let the bytes that
                // landed at the boundary escape the comparison, so a
                // peer timing bursts across boundaries could sustain
                // double the budget without ever tripping.
                window_bytes += n as u64;
                let over_bytes =
                    shared.cfg.max_conn_bytes_per_sec.is_some_and(|max| window_bytes > max);
                let over_frames =
                    shared.cfg.max_conn_frames_per_sec.is_some_and(|max| window_frames > max);
                if over_bytes || over_frames {
                    shared.counters.throttled.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                if window_start.elapsed() >= Duration::from_secs(1) {
                    window_start = Instant::now();
                    window_bytes = 0;
                    window_frames = 0;
                }
            }
            Err(e) if timed_out(&e) => {
                if drain_mode {
                    // Drained: nothing more buffered on the socket.
                    return;
                }
                // Idle past the read deadline: orphaned peer (its
                // heartbeats stopped). Closing releases this conn's WAL
                // handle; the job seal deadline (if any) finalizes
                // whatever arrived.
                shared.counters.idle_closed.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Err(_) => return,
        }
    }
}

/// Consumes `PNT1` + Hello and completes the handshake. Without a key:
/// answers `PNT1` + HelloAck (the v1 exchange, byte-identical). With a
/// key: answers `PNT1` + Challenge, verifies the client's response, and
/// only then HelloAck — returning the server→client MAC chain and
/// installing the client→server chain into `rbuf`.
///
/// `None` = reject (counted as `bad_hello` by the caller; the specific
/// cause lands in `version_skew` / `auth_failures` here). A rejected
/// peer gets a typed [`NetFrame::Reject`] before the close when the
/// conversation got far enough to send one.
fn server_hello(
    shared: &ServeShared,
    stream: &mut TcpStream,
    rbuf: &mut FrameReader,
) -> Option<Option<MacState>> {
    let frame = read_handshake_frame(stream, rbuf, shared.cfg.hello_timeout, true)?;
    let NetFrame::Hello { version, client_id } = frame else {
        return None;
    };
    if version != NET_VERSION {
        shared.counters.version_skew.fetch_add(1, Ordering::Relaxed);
        let _ = stream.write_all(&NetFrame::Reject { code: REJECT_VERSION }.encode_first());
        return None;
    }
    let Some(key) = shared.cfg.auth_key.as_ref() else {
        // Unauthenticated (loopback) mode: plain v1 hello-ack.
        let ack = NetFrame::HelloAck { version: NET_VERSION }.encode_first();
        return stream.write_all(&ack).ok().map(|()| None);
    };
    let nonce = fresh_nonce();
    stream.write_all(&NetFrame::Challenge { nonce }.encode_first()).ok()?;
    let response = read_handshake_frame(stream, rbuf, shared.cfg.hello_timeout, false);
    let Some(NetFrame::AuthResponse { mac }) = response else {
        shared.counters.auth_failures.fetch_add(1, Ordering::Relaxed);
        let _ = stream.write_all(&NetFrame::Reject { code: REJECT_AUTH_REQUIRED }.encode());
        return None;
    };
    let expect = challenge_response(key, &nonce, client_id, NET_VERSION);
    if !ct_eq(&expect, &mac) {
        // Wrong key — or a response replayed from another handshake,
        // which this nonce was never part of.
        shared.counters.auth_failures.fetch_add(1, Ordering::Relaxed);
        let _ = stream.write_all(&NetFrame::Reject { code: REJECT_BAD_MAC }.encode());
        return None;
    }
    stream.write_all(&NetFrame::HelloAck { version: NET_VERSION }.encode()).ok()?;
    let sk = session_key(key, &nonce, client_id, NET_VERSION);
    rbuf.set_mac(MacState::new(sk, DIR_CLIENT));
    Some(Some(MacState::new(sk, DIR_SERVER)))
}

/// One connection's group commit: the records staged into its WAL since
/// the last commit and what folding them will do. Nothing here reaches
/// the session or the watermarks until [`Conn::commit`] has made the
/// batch durable.
#[derive(Default)]
struct Batch {
    /// A record was staged while durability is configured but this
    /// connection has no WAL writer (dropped after a failed rewind): the
    /// batch cannot be made durable.
    unlogged: bool,
    /// Segments and completions to fold once committed, in frame order.
    folds: Vec<(Arc<Mutex<NetJobEntry>>, WalRecord)>,
    /// Batch-local overlay of the watermarks the dedup and gap checks
    /// read: `(job, rank) -> next seq`, completed `(job, rank)`s, and the
    /// jobs whose open is staged.
    next_seq: HashMap<(u64, u64), u64>,
    completed: HashSet<(u64, u64)>,
    opens: Vec<u64>,
}

impl Batch {
    fn clear(&mut self) {
        self.unlogged = false;
        self.folds.clear();
        self.next_seq.clear();
        self.completed.clear();
        self.opens.clear();
    }
}

/// A handshaken connection: its socket and send-side MAC chain, its WAL,
/// and the batch being built from the frames of one read.
struct Conn<'s> {
    shared: &'s ServeShared,
    stream: TcpStream,
    send_mac: Option<MacState>,
    wal: Option<WalWriter>,
    /// Jobs whose open this connection has logged: every conn WAL that
    /// carries a job's records also names its open, so recovery can
    /// replay any single file (or any union) without a dangling job.
    opened: HashSet<u64>,
    batch: Batch,
    /// `Ack { job, a, b, of }` coordinates earned since the last flush,
    /// in frame order; written only after the commit covering them.
    acks: Vec<(u64, u64, u64, u8)>,
    /// Reused buffers: one flush's sealed frames, one frame's payload.
    out: Vec<u8>,
    payload: Vec<u8>,
}

impl Conn<'_> {
    fn stage(&mut self, rec: &WalRecord) {
        match self.wal.as_mut() {
            Some(wal) => wal.stage(rec),
            None => self.batch.unlogged |= self.shared.wal_dir.is_some(),
        }
    }

    fn ack(&mut self, job: u64, a: u64, b: u64, of: u8) {
        self.acks.push((job, a, b, of));
    }

    /// Makes the batch durable — one write, one `sync_data` — and only
    /// then folds it into the session and moves the watermarks; its acks
    /// stay queued for [`Conn::flush`]. `Err(())` = the records are NOT
    /// durable: nothing is folded, acked or advanced, and the caller
    /// closes so the client retransmits to a healthier connection.
    fn commit(&mut self) -> Result<(), ()> {
        let durable = match WalWriter::append_or_rewind(&mut self.wal, WalWriter::commit) {
            // No writer: durable only if nothing needed logging (or no
            // durability is configured, so `unlogged` never gets set).
            None => !self.batch.unlogged,
            // Nothing staged: no write, no sync.
            Some(Ok(0)) => true,
            Some(Ok(bytes)) => {
                let c = &self.shared.counters;
                c.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
                c.wal_syncs.fetch_add(1, Ordering::Relaxed);
                true
            }
            Some(Err(_)) => {
                self.shared.counters.wal_errors.fetch_add(1, Ordering::Relaxed);
                false
            }
        };
        if !durable {
            self.batch.clear();
            self.acks.clear();
            return Err(());
        }
        for (entry, rec) in self.batch.folds.drain(..) {
            fold(self.shared, &entry, rec);
        }
        self.opened.extend(self.batch.opens.drain(..));
        self.batch.clear();
        Ok(())
    }

    /// Commits the batch, then writes its acks — sealed in order, each
    /// byte-identical to a lone ack — and `reply` after them, in one
    /// write. `Err(())` = the commit or the write failed; close.
    fn flush(&mut self, reply: Option<&NetFrame>) -> Result<(), ()> {
        self.commit()?;
        self.out.clear();
        let acks = self.acks.len() as u64;
        for &(job, a, b, of) in &self.acks {
            let ack = NetFrame::Ack { job, a, b, of };
            put_framed(&mut self.out, &ack, &mut self.send_mac, &mut self.payload);
        }
        self.acks.clear();
        if let Some(frame) = reply {
            put_framed(&mut self.out, frame, &mut self.send_mac, &mut self.payload);
        }
        if self.out.is_empty() {
            return Ok(());
        }
        self.stream.write_all(&self.out).map_err(|_| ())?;
        self.shared.counters.acks.fetch_add(acks, Ordering::Relaxed);
        Ok(())
    }

    /// Stages one accepted frame into the batch. `Ok(Some(reply))` =
    /// flush, send `reply`, close (overload shed, limits reject);
    /// `Err(())` = close (protocol violation, the crash-simulation hook,
    /// or a commit that could not be made durable — no ack, so the
    /// client retransmits).
    fn dispatch(&mut self, frame: NetFrame) -> Result<Option<NetFrame>, ()> {
        let shared = self.shared;
        match frame {
            NetFrame::Heartbeat => {
                shared.counters.heartbeats.fetch_add(1, Ordering::Relaxed);
            }
            NetFrame::JobOpen { job, nranks, identity_check } => {
                // The declared rank count sizes the merger's allocations,
                // so it must be judged *before* the job is opened: a
                // hostile open declaring 2^50 ranks costs the peer one
                // typed reject, not the collector petabytes.
                if nranks > MAX_NRANKS {
                    shared.counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    return Ok(Some(NetFrame::Reject { code: REJECT_LIMITS }));
                }
                // Overload shedding applies to *new* jobs only: a
                // retransmit of an accepted job's open must keep
                // succeeding, or a reconnect during overload would
                // orphan the job.
                let known = lock(&shared.jobs).contains_key(&job);
                if !known && shared.saturated() {
                    shared.counters.sheds.fetch_add(1, Ordering::Relaxed);
                    return Ok(Some(NetFrame::Busy { job }));
                }
                shared.job_entry(job, nranks, identity_check);
                if !self.opened.contains(&job) && !self.batch.opens.contains(&job) {
                    self.stage(&WalRecord::JobOpen { job, nranks, identity_check });
                    self.batch.opens.push(job);
                }
                self.ack(job, 0, 0, KIND_JOB_OPEN);
            }
            NetFrame::Segment { job, seg } => {
                let entry = shared.open_job(job)?;
                let (rank, seq) = (seg.rank as u64, seg.seq as u64);
                let expected = match self.batch.next_seq.get(&(job, rank)) {
                    Some(&next) => Some(next),
                    None => lock(&entry).next_seq.get(&rank).copied(),
                };
                match expected {
                    Some(next) if seq < next => {
                        // Retransmit of an already-durable frame: ack, drop.
                        shared.counters.dup_frames.fetch_add(1, Ordering::Relaxed);
                    }
                    Some(next) if seq > next => {
                        // A gap on an in-order stream is a protocol error.
                        shared.counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        return Err(());
                    }
                    _ => {
                        // In order — or the first segment this
                        // incarnation has seen for the rank. A restarted
                        // collector adopts the client's seq as its
                        // watermark: the missing prefix is durable in the
                        // previous incarnation's conn WALs, and recovery
                        // replays the union. The live merge degrades; the
                        // WAL does not.
                        let rec = WalRecord::Segment { job, seg };
                        self.stage(&rec);
                        self.batch.next_seq.insert((job, rank), seq + 1);
                        self.batch.folds.push((entry, rec));
                    }
                }
                self.ack(job, rank, seq, KIND_SEGMENT);
            }
            NetFrame::Complete { job, done } => {
                let entry = shared.open_job(job)?;
                let rank = done.rank as u64;
                if self.batch.completed.contains(&(job, rank))
                    || lock(&entry).completed.contains(&rank)
                {
                    shared.counters.dup_frames.fetch_add(1, Ordering::Relaxed);
                } else {
                    let rec = WalRecord::Complete { job, done };
                    self.stage(&rec);
                    self.batch.completed.insert((job, rank));
                    self.batch.folds.push((entry, rec));
                }
                self.ack(job, rank, 0, KIND_COMPLETE);
            }
            NetFrame::Finished { job } => {
                // Commit and ack what came before first: no container is
                // written ahead of its records.
                self.flush(None)?;
                self.finish(job)?;
            }
            NetFrame::Hello { .. }
            | NetFrame::HelloAck { .. }
            | NetFrame::Ack { .. }
            | NetFrame::Challenge { .. }
            | NetFrame::AuthResponse { .. }
            | NetFrame::Busy { .. }
            | NetFrame::Reject { .. } => {
                // Handshake-only or server-only frames after the
                // handshake: a protocol violation either way.
                shared.counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                return Err(());
            }
        }
        Ok(None)
    }

    /// Finalizes `job` (everything before its finish is committed and
    /// folded) and stages its `Finished` record and ack. `Err(())` =
    /// close; after the crash-simulation hook fires, that stops the
    /// connection with only the `Finished` record left to commit.
    fn finish(&mut self, job: u64) -> Result<(), ()> {
        let shared = self.shared;
        let entry = shared.open_job(job)?;
        let mut e = lock(&entry);
        if let Some(lossless) = e.finished {
            shared.counters.dup_frames.fetch_add(1, Ordering::Relaxed);
            self.ack(job, u64::from(lossless), 0, KIND_FINISHED);
            return Ok(());
        }
        if e.next_seq.is_empty() && e.completed.is_empty() {
            // A finish replayed across a collector restart: this
            // incarnation never saw the job's data (it was all acked
            // before the crash). Finalizing now would overwrite the
            // previous incarnation's container with an empty trace, so
            // just settle the client; recovery owns the rebuild.
            shared.counters.stale_finishes.fetch_add(1, Ordering::Relaxed);
            // The replayed open counted toward `jobs_opened`, so a stale
            // finish must settle `jobs_finished` too — or the open-jobs
            // gauge inflates with every job replayed across a restart
            // until `max_open_jobs` sheds forever.
            shared.counters.jobs_finished.fetch_add(1, Ordering::Relaxed);
            e.finished = Some(false);
            self.ack(job, 0, 0, KIND_FINISHED);
            return Ok(());
        }
        let outcome = shared.session.finish_job(&e.handle);
        let lossless = outcome.is_lossless();
        if lossless {
            // Only a lossless finish is marked settled in the WAL:
            // recovery then trusts the container. Anything less and
            // recovery re-replays the full record union instead.
            self.stage(&WalRecord::Finished { job });
        }
        e.finished = Some(lossless);
        let done = shared.counters.jobs_finished.fetch_add(1, Ordering::Relaxed) + 1;
        self.ack(job, u64::from(lossless), 0, KIND_FINISHED);
        if shared.cfg.kill_after_finished.is_some_and(|k| done >= k) {
            // Crash simulation: sockets shut *before* this ack is
            // written, so the client never learns the job finished, and
            // no later frame of this read is staged — a crash here could
            // not have logged one.
            shared.initiate_stop();
            return Err(());
        }
        Ok(())
    }
}

/// Folds one committed record into its job, re-judging the watermark
/// under the job lock: another connection may have folded the same
/// `(rank, seq)` since this one staged it, and a record folds once.
fn fold(shared: &ServeShared, entry: &Mutex<NetJobEntry>, rec: WalRecord) {
    let mut e = lock(entry);
    match rec {
        WalRecord::Segment { seg, .. }
            if e.next_seq.get(&(seg.rank as u64)).is_none_or(|&next| seg.seq as u64 >= next) =>
        {
            e.next_seq.insert(seg.rank as u64, seg.seq as u64 + 1);
            e.handle.push_segment(seg);
        }
        WalRecord::Complete { done, .. } if !e.completed.contains(&(done.rank as u64)) => {
            e.completed.insert(done.rank as u64);
            e.handle.complete_rank(done);
        }
        _ => {
            shared.counters.dup_frames.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::IngestConfig;
    use crate::net::{NetClient, NetClientConfig};
    use crate::test_util::{completion, segment, temp_dir};

    /// Reads one server frame, stripping the leading `PNT1` magic when
    /// `expect_magic` (the server prefixes its *first* frame only).
    fn read_server_frame(stream: &mut TcpStream, expect_magic: bool) -> Option<NetFrame> {
        let mut rbuf = FrameReader::new(usize::MAX);
        read_handshake_frame(stream, &mut rbuf, Duration::from_secs(5), expect_magic)
    }

    /// A one-shard collector on a loopback port, spilling under `dir`.
    fn test_server(dir: &Path, cfg: NetServerConfig) -> ServeHandle {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let session =
            IngestSession::new(IngestConfig::new().shards(1).spill_dir(dir)).expect("session");
        serve(listener, session, cfg).expect("serve")
    }

    fn raw_hello(server: &ServeHandle) -> TcpStream {
        let mut s = TcpStream::connect(server.addr()).expect("connect");
        s.write_all(&NetFrame::Hello { version: NET_VERSION, client_id: 3 }.encode_first())
            .expect("write hello");
        assert_eq!(
            read_server_frame(&mut s, true),
            Some(NetFrame::HelloAck { version: NET_VERSION }),
            "plain hello must be acked"
        );
        s
    }

    #[test]
    fn huge_job_open_gets_a_typed_reject_without_allocation() {
        let dir = temp_dir("net-nranks");
        let server = test_server(&dir, NetServerConfig::new());
        let mut s = raw_hello(&server);
        let open = NetFrame::JobOpen { job: 1, nranks: 1usize << 50, identity_check: false };
        s.write_all(&open.encode()).expect("write open");
        assert_eq!(
            read_server_frame(&mut s, false),
            Some(NetFrame::Reject { code: REJECT_LIMITS }),
            "a 2^50-rank open must be refused with a typed reject"
        );
        let stats = server.stop();
        assert_eq!(stats.jobs_opened, 0, "the hostile open must never reach the session");
        assert_eq!(stats.protocol_errors, 1, "{stats:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_finishes_settle_the_open_jobs_gauge() {
        let dir = temp_dir("net-stale");
        let server = test_server(&dir, NetServerConfig::new().max_open_jobs(1));
        let mut s = raw_hello(&server);
        // Open job 1 and finish it with no data: the stale-finish path
        // (a finish replayed across a restart looks exactly like this).
        s.write_all(&NetFrame::JobOpen { job: 1, nranks: 1, identity_check: false }.encode())
            .expect("open 1");
        assert_eq!(
            read_server_frame(&mut s, false),
            Some(NetFrame::Ack { job: 1, a: 0, b: 0, of: KIND_JOB_OPEN })
        );
        s.write_all(&NetFrame::Finished { job: 1 }.encode()).expect("finish 1");
        assert_eq!(
            read_server_frame(&mut s, false),
            Some(NetFrame::Ack { job: 1, a: 0, b: 0, of: KIND_FINISHED })
        );
        // With max_open_jobs = 1, job 2 only gets in if the stale
        // finish settled the open-jobs gauge.
        s.write_all(&NetFrame::JobOpen { job: 2, nranks: 1, identity_check: false }.encode())
            .expect("open 2");
        assert_eq!(
            read_server_frame(&mut s, false),
            Some(NetFrame::Ack { job: 2, a: 0, b: 0, of: KIND_JOB_OPEN }),
            "a stale-finished job must not hold its admission slot"
        );
        let stats = server.stop();
        assert_eq!(stats.stale_finishes, 1, "{stats:?}");
        assert_eq!(stats.sheds, 0, "{stats:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn loopback_round_trip_delivers_a_job_losslessly() {
        let dir = temp_dir("net-smoke");
        let server = test_server(&dir.join("server"), NetServerConfig::new());
        let cfg = NetClientConfig::new(server.addr().to_string())
            .client_id(1)
            .spill_dir(dir.join("client"));
        let client = NetClient::start(cfg).expect("client");
        let h = client.open_job(0, 1, true);
        h.push_segment(segment(0, 0, &[b"a", b"b", b"a"]));
        h.complete_rank(completion(0, 3, 1));
        let out = h.finish();
        assert!(out.delivered, "problems: {:?}", out.problems);
        assert_eq!(out.lossless, Some(true));
        assert!(out.accounted());
        let stats = client.shutdown();
        assert!(stats.acks >= 3, "stats: {stats:?}");
        assert!(!stats.degraded);
        let server_stats = server.stop();
        assert_eq!(server_stats.jobs_finished, 1);
        assert_eq!(server_stats.torn_conns, 0);
        // The ack-before-durable WAL exists and holds the stream.
        let report = crate::recover::recover_dir(&dir.join("server")).expect("recover");
        assert_eq!(report.jobs.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// One job's open, 32 segments over two ranks and both completions.
    fn job_frames(job: u64) -> Vec<NetFrame> {
        let mut frames = vec![NetFrame::JobOpen { job, nranks: 2, identity_check: false }];
        for seq in 0..16u32 {
            for rank in 0..2 {
                let mut seg = segment(rank, seq, &[b"a", b"b", b"a"]);
                seg.sealed = seq < 15;
                frames.push(NetFrame::Segment { job, seg });
            }
        }
        for rank in 0..2 {
            frames.push(NetFrame::Complete { job, done: completion(rank, 48, 16) });
        }
        frames
    }

    #[test]
    fn a_burst_of_frames_is_one_group_commit_acked_in_order() {
        let dir = temp_dir("net-group-commit");
        let server = test_server(&dir, NetServerConfig::new());
        let mut s = raw_hello(&server);
        let job = 11;
        let frames = job_frames(job);
        let burst: Vec<u8> = frames.iter().flat_map(|f| f.encode()).collect();
        s.write_all(&burst).expect("write the burst");
        // Every frame is acked exactly once, in frame order.
        let mut rbuf = FrameReader::new(usize::MAX);
        for f in &frames {
            let ack = read_handshake_frame(&mut s, &mut rbuf, Duration::from_secs(5), false);
            let Some(NetFrame::Ack { job: j, a, b, of }) = ack else {
                panic!("expected the ack of {f:?}, got {ack:?}");
            };
            assert!(f.settled_by(j, a, b, of), "ack {:?} out of order for {f:?}", (j, a, b, of));
        }
        s.set_read_timeout(Some(Duration::from_millis(100))).expect("timeout");
        assert!(
            matches!(s.read(&mut [0u8; 64]), Err(ref e) if timed_out(e)),
            "no ack beyond one per frame"
        );
        let stats = server.stop();
        assert_eq!(stats.acks, frames.len() as u64, "{stats:?}");
        assert_eq!(stats.dup_frames + stats.protocol_errors + stats.wal_errors, 0, "{stats:?}");
        assert!(stats.wal_syncs >= 1, "{stats:?}");
        assert!(
            stats.wal_syncs < frames.len() as u64,
            "a burst must share syncs: {} syncs for {} records",
            stats.wal_syncs,
            frames.len()
        );

        // Only the fsync boundaries moved: the conn WAL is byte-identical
        // to one written a record (and a sync) at a time.
        let conn_wal = crate::layout::wal_dir(&dir).join("conn-0.wal");
        let oracle = dir.join("oracle.wal");
        let mut w = WalWriter::create(&oracle).expect("oracle wal");
        for f in frames {
            w.append(&f.into_wal_record().expect("a durable record")).expect("append");
        }
        assert_eq!(w.syncs(), w.records(), "append is a batch of one");
        let image = fs::read(&conn_wal).expect("conn wal");
        assert_eq!(image, fs::read(&oracle).expect("oracle image"));
        assert!(image.starts_with(crate::wal::WAL_MAGIC));
        fs::remove_file(&oracle).expect("drop the oracle");

        // Recovery rebuilds the unfinished job from the batched log.
        let report = crate::recover::recover_dir(&dir).expect("recover");
        assert_eq!(report.jobs.len(), 1, "{:?}", report.problems);
        let rebuilt = &report.jobs[0];
        assert_eq!(
            (rebuilt.job, rebuilt.state, rebuilt.calls),
            (job, crate::recover::RecoveryState::Recovered, 96),
            "{:?}",
            rebuilt.problems
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_kill_hook_commits_nothing_after_the_finished_record() {
        let dir = temp_dir("net-kill-hook");
        let server = test_server(&dir, NetServerConfig::new().kill_after_finished(1));
        let mut s = raw_hello(&server);
        // One read carries job 21 with its finish, then job 22: the
        // simulated crash at the finish must log nothing of job 22.
        let logged = job_frames(21);
        let mut burst: Vec<u8> = logged.iter().flat_map(|f| f.encode()).collect();
        burst.extend(NetFrame::Finished { job: 21 }.encode());
        burst.extend(job_frames(22).iter().flat_map(|f| f.encode()));
        s.write_all(&burst).expect("write the burst");
        let mut rbuf = FrameReader::new(usize::MAX);
        for f in &logged {
            let ack = read_handshake_frame(&mut s, &mut rbuf, Duration::from_secs(5), false);
            assert!(
                matches!(ack, Some(NetFrame::Ack { job, a, b, of }) if f.settled_by(job, a, b, of)),
                "expected the ack of {f:?}, got {ack:?}"
            );
        }
        let after = read_handshake_frame(&mut s, &mut rbuf, Duration::from_secs(5), false);
        assert_eq!(after, None, "the finish is never acked");
        let stats = server.stop();
        assert_eq!((stats.acks, stats.jobs_finished), (logged.len() as u64, 1), "{stats:?}");

        // The conn WAL is job 21's records and its `Finished`, nothing more.
        let oracle = dir.join("oracle.wal");
        let mut w = WalWriter::create(&oracle).expect("oracle wal");
        for f in logged {
            w.append(&f.into_wal_record().expect("a durable record")).expect("append");
        }
        w.append(&WalRecord::Finished { job: 21 }).expect("append");
        let conn_wal = crate::layout::wal_dir(&dir).join("conn-0.wal");
        let replay = crate::wal::read_wal(&conn_wal).expect("read conn wal");
        assert_eq!(replay.records.len() as u64, w.records(), "records logged after the crash");
        assert_eq!(fs::read(&conn_wal).expect("conn wal"), fs::read(&oracle).expect("oracle"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_commit_acks_folds_and_advances_nothing() {
        let dir = temp_dir("net-failed-commit");
        let server = test_server(&dir, NetServerConfig::new());
        let shared = server.shared.clone();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        // A durable collector whose conn WAL is gone (dropped after a
        // failed rewind): no commit on this connection can succeed.
        let mut conn = Conn {
            shared: &shared,
            stream,
            send_mac: None,
            wal: None,
            opened: HashSet::new(),
            batch: Batch::default(),
            acks: Vec::new(),
            out: Vec::new(),
            payload: Vec::new(),
        };
        let job = 12;
        for f in job_frames(job) {
            assert!(matches!(conn.dispatch(f), Ok(None)));
        }
        assert_eq!(conn.acks.len(), 35);
        assert_eq!(conn.flush(None), Err(()));
        assert!(conn.opened.is_empty(), "the open is not logged");
        assert!(conn.acks.is_empty() && conn.batch.folds.is_empty());
        assert!(conn.batch.next_seq.is_empty() && conn.batch.completed.is_empty());
        let entry = shared.open_job(job).expect("the session knows the job");
        {
            let e = lock(&entry);
            assert!(e.next_seq.is_empty() && e.completed.is_empty(), "no watermark moved");
        }
        drop(conn);
        let mut buf = [0u8; 64];
        assert_eq!(peer.read(&mut buf).expect("read"), 0, "not one ack byte was written");
        let stats = server.stop();
        assert_eq!((stats.acks, stats.wal_syncs, stats.wal_bytes), (0, 0, 0), "{stats:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
