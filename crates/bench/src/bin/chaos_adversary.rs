//! `chaos_adversary` — hostile-peer sweep against a live `PNT1`
//! collector, with honest clients streaming concurrently.
//!
//! ```text
//! chaos_adversary [--jobs J] [--ranks R] [--iters I] [--peers P] [--seed S] [--quick]
//! ```
//!
//! Where `chaos_net` injects faults into *cooperating* peers, this
//! sweep dispatches peers that never intended to cooperate: the seeded
//! [`pilgrim::AdversaryPlan`] corpus covers garbage hellos, oversize
//! length prefixes, CRC-valid-but-semantically-invalid frames,
//! job opens declaring absurd rank counts, handshake replays,
//! wrong-key clients, slow-loris writers, held
//! connections, and mid-handshake disconnects (see
//! [`pilgrim::AdversaryKind`]). Three cells run the corpus against an
//! authenticated collector, an unauthenticated one, and an overloaded
//! one (`max_open_jobs` squeezed so honest jobs get shed with `Busy`).
//!
//! The gates are the hardening invariants, checked in-process:
//!
//! - **zero panics** — a panic hook counts every panic anywhere in the
//!   process (collector worker threads included);
//! - **zero hangs** — a watchdog thread kills the sweep if a cell
//!   outlives its deadline;
//! - **bounded memory** — the collector's peak per-connection buffer
//!   must stay under the decode-size cap plus one read chunk;
//! - **no honest casualties** — every honest job ends durable:
//!   delivered, locally spilled, or rebuilt by collector-side recovery.
//!
//! Stdout is deterministic (the table carries only seed-determined
//! counts); timing-dependent counters go to stderr. `scripts/check.sh`
//! runs the sweep twice and diffs the output.

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::path::Path;
use std::process::exit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pilgrim::frame::FrameReader;
use pilgrim::net::{read_handshake_frame, NetFrame};
use pilgrim::recover::RecoveryState;
use pilgrim::wal::encode_frame;
use pilgrim::{
    challenge_response, serve, AdversaryKind, AdversaryPlan, AuthKey, IngestConfig, IngestSession,
    NetClient, NetClientConfig, NetServerConfig, PilgrimConfig, PilgrimTracer, RetryPolicy,
    SegmentSink, NET_MAGIC, NET_VERSION,
};
use pilgrim_bench::{flag, WORKLOADS};

/// Decode-size cap handed to every cell's collector; the bounded-memory
/// gate asserts the peak connection buffer stayed under it (plus one
/// 64 KiB read chunk).
const FRAME_CAP: usize = 1 << 20;

static PANICS: AtomicU64 = AtomicU64::new(0);
static DONE: AtomicBool = AtomicBool::new(false);

// ---------------------------------------------------------------------------
// Hostile peers
// ---------------------------------------------------------------------------

/// Reads one server frame, tolerating the leading `PNT1` magic (the
/// server prefixes it on its first frame only). Returns `None` on
/// close, timeout, or anything unparseable — an adversary doesn't care.
fn read_peer_frame(stream: &mut TcpStream, expect_magic: bool) -> Option<NetFrame> {
    let mut rbuf = FrameReader::new(usize::MAX);
    read_handshake_frame(stream, &mut rbuf, Duration::from_millis(2000), expect_magic)
}

/// Completes a `magic + Hello` → `Challenge?` exchange and returns the
/// server's first frame. `None` when the server hung up first.
fn send_hello(stream: &mut TcpStream, client_id: u64) -> Option<NetFrame> {
    stream.write_all(&NetFrame::Hello { version: NET_VERSION, client_id }.encode_first()).ok()?;
    read_peer_frame(stream, true)
}

/// Plays one hostile peer against the collector. Every socket error is
/// swallowed: the collector closing on us mid-attack is the expected
/// outcome, not a failure of the adversary.
fn run_adversary(addr: &str, plan: &AdversaryPlan, peer: u64, key: Option<&AuthKey>) {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return;
    };
    let _ = stream.set_nodelay(true);
    let client_id = 0xAD00 + peer;
    match plan.kind(peer) {
        AdversaryKind::GarbageHello => {
            let _ = stream.write_all(&plan.garbage(peer, 256));
            let _ = read_peer_frame(&mut stream, true);
        }
        AdversaryKind::OversizeLength => {
            // Valid magic, valid Hello kind byte, then a varint length
            // declaring a payload of ~1 TiB that never arrives. The
            // collector must reject the header, not allocate for it.
            let mut wire = NET_MAGIC.to_vec();
            wire.push(1); // KIND_HELLO
            let mut len = 1u64 << 40;
            while len >= 0x80 {
                wire.push((len as u8 & 0x7f) | 0x80);
                len >>= 7;
            }
            wire.push(len as u8);
            wire.extend_from_slice(&plan.garbage(peer, 64));
            let _ = stream.write_all(&wire);
            let _ = read_peer_frame(&mut stream, true);
        }
        AdversaryKind::SemanticGarbage => {
            // A real handshake, then CRC-valid frames whose contents
            // are nonsense: unknown kinds, truncated payloads, and
            // server-only frames sent client→server. In auth mode these
            // fail the frame MAC instead — either way the collector
            // must shrug, not panic.
            let _ = send_hello(&mut stream, client_id);
            let mut wire = Vec::new();
            wire.extend_from_slice(&encode_frame(0xEE, &plan.garbage(peer, 32)));
            wire.extend_from_slice(&encode_frame(4, &plan.garbage(peer, 5)));
            wire.extend_from_slice(&NetFrame::HelloAck { version: NET_VERSION }.encode());
            wire.extend_from_slice(&NetFrame::Busy { job: plan.salt(peer) }.encode());
            let _ = stream.write_all(&wire);
            let _ = read_peer_frame(&mut stream, false);
        }
        AdversaryKind::HugeJobOpen => {
            // A real handshake, then a CRC-valid JobOpen declaring
            // ~2^50 ranks. The collector must answer the declared
            // allocation with a typed Reject, not reserve petabytes of
            // merger state. (In auth mode the unMAC'd frame fails the
            // session MAC first — either way, nothing is allocated.)
            let _ = send_hello(&mut stream, client_id);
            let open = NetFrame::JobOpen {
                job: plan.salt(peer),
                nranks: 1usize << 50,
                identity_check: false,
            };
            let _ = stream.write_all(&open.encode());
            let _ = read_peer_frame(&mut stream, false);
        }
        AdversaryKind::HandshakeReplay => {
            // Capture a (nonce-bound) challenge response on one
            // connection, then replay it verbatim against the fresh
            // nonce of a second connection. The second handshake must
            // fail: nonces never repeat.
            let captured = match (send_hello(&mut stream, client_id), key) {
                (Some(NetFrame::Challenge { nonce }), Some(k)) => {
                    let mac = challenge_response(k, &nonce, client_id, NET_VERSION);
                    let _ = stream.write_all(&NetFrame::AuthResponse { mac }.encode());
                    let _ = read_peer_frame(&mut stream, false);
                    Some(mac)
                }
                _ => None,
            };
            drop(stream);
            if let (Some(mac), Ok(mut second)) = (captured, TcpStream::connect(addr)) {
                if let Some(NetFrame::Challenge { .. }) = send_hello(&mut second, client_id) {
                    let _ = second.write_all(&NetFrame::AuthResponse { mac }.encode());
                    let _ = read_peer_frame(&mut second, false);
                }
            }
        }
        AdversaryKind::WrongKey => {
            let wrong = AuthKey::from_bytes(&plan.salt(peer).to_le_bytes());
            if let (Some(NetFrame::Challenge { nonce }), Some(k)) =
                (send_hello(&mut stream, client_id), wrong)
            {
                let mac = challenge_response(&k, &nonce, client_id, NET_VERSION);
                let _ = stream.write_all(&NetFrame::AuthResponse { mac }.encode());
                let _ = read_peer_frame(&mut stream, false);
            }
        }
        AdversaryKind::SlowLoris => {
            // One byte of a valid hello every 25 ms: slower than the
            // collector's patience, fast enough to defeat a naive
            // "no bytes at all" idle check.
            for b in (NetFrame::Hello { version: NET_VERSION, client_id }).encode_first() {
                if stream.write_all(&[b]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        }
        AdversaryKind::ConnectHold => {
            // Hold an admission slot without ever writing.
            std::thread::sleep(Duration::from_millis(400));
        }
        AdversaryKind::MidHandshakeDisconnect => {
            let _ = stream.write_all(&NET_MAGIC[..3]);
        }
    }
}

// ---------------------------------------------------------------------------
// Honest clients
// ---------------------------------------------------------------------------

struct HonestOutcome {
    job: u64,
    delivered: bool,
    spilled: bool,
}

#[allow(clippy::too_many_arguments)]
fn run_honest_job(
    addr: String,
    dir: &Path,
    cell_idx: usize,
    j: usize,
    ranks: usize,
    iters: usize,
    seed: u64,
    key: Option<AuthKey>,
) -> HonestOutcome {
    let client_id = (cell_idx as u64) * 64 + j as u64 + 1;
    let mut cfg = NetClientConfig::new(addr)
        .client_id(client_id)
        .retry(RetryPolicy::default().max_attempts(6).backoff(Duration::from_millis(10)))
        .heartbeat(Duration::from_millis(200))
        .finish_timeout(Duration::from_secs(60))
        .spill_dir(dir.join(format!("client-{j}")));
    if let Some(k) = key {
        cfg = cfg.auth_key(k);
    }
    let client = NetClient::start(cfg).unwrap_or_else(|e| {
        eprintln!("cannot start net client: {e}");
        exit(1)
    });
    let mut tcfg = PilgrimConfig::default();
    if j % 2 == 1 {
        tcfg = tcfg.memory_budget(3000);
    }
    let handle = client.open_job(0, ranks, tcfg.merge_identity_check);
    let workload = WORKLOADS[j % WORKLOADS.len()];
    let body = mpi_workloads::by_name(workload, iters);
    let sink: Arc<dyn SegmentSink> = Arc::new(handle.clone());
    let wcfg = mpi_sim::WorldConfig::new(ranks).seed(seed ^ (j as u64) << 8);
    mpi_sim::World::run(
        &wcfg,
        |rank| PilgrimTracer::new(rank, tcfg).with_segment_sink(sink.clone()),
        move |env| body(env),
    );
    let out = handle.finish();
    let stats = client.shutdown();
    eprintln!(
        "  cell {cell_idx} honest job {j}: {} connects, {} busy sheds, delivered={}",
        stats.connects, stats.busy_sheds, out.delivered
    );
    HonestOutcome { job: out.job, delivered: out.delivered, spilled: out.local_path.is_some() }
}

// ---------------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------------

struct Cell {
    name: &'static str,
    auth: bool,
    peers_factor: u64,
    /// Squeeze `max_open_jobs` to force shedding.
    overload: bool,
}

struct CellResult {
    peers: u64,
    durable: usize,
    lost: usize,
}

#[allow(clippy::too_many_arguments)]
fn run_cell(
    dir: &Path,
    cell_idx: usize,
    cell: &Cell,
    jobs: usize,
    ranks: usize,
    iters: usize,
    peers: u64,
    seed: u64,
) -> CellResult {
    let key = cell.auth.then(|| AuthKey::from_bytes(b"chaos-adversary-sweep-key")).flatten();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap_or_else(|e| {
        eprintln!("cannot bind loopback: {e}");
        exit(1)
    });
    let session =
        IngestSession::new(IngestConfig::new().shards(2).spill_dir(dir)).unwrap_or_else(|e| {
            eprintln!("cannot start ingest session: {e}");
            exit(1)
        });
    let mut scfg = NetServerConfig::new()
        .io_timeout(Duration::from_millis(500))
        .max_frame_len(FRAME_CAP)
        .max_connections(64);
    if let Some(k) = &key {
        scfg = scfg.auth_key(k.clone());
    }
    if cell.overload {
        scfg = scfg.max_open_jobs(1);
    }
    let server = serve(listener, session, scfg).unwrap_or_else(|e| {
        eprintln!("cannot serve: {e}");
        exit(1)
    });
    let addr = server.addr().to_string();
    let peers = peers * cell.peers_factor;
    let plan = AdversaryPlan::new(seed ^ cell_idx as u64);

    // Honest clients and hostile peers run concurrently, by design.
    let honest: Vec<_> = (0..jobs)
        .map(|j| {
            let addr = addr.clone();
            let dir = dir.to_path_buf();
            let key = key.clone();
            std::thread::spawn(move || {
                run_honest_job(addr, &dir, cell_idx, j, ranks, iters, seed, key)
            })
        })
        .collect();
    let hostile: Vec<_> = (0..peers)
        .map(|peer| {
            let addr = addr.clone();
            let plan = plan.clone();
            let key = key.clone();
            std::thread::spawn(move || run_adversary(&addr, &plan, peer, key.as_ref()))
        })
        .collect();

    for h in hostile {
        let _ = h.join();
    }
    let outcomes: Vec<_> =
        honest.into_iter().map(|h| h.join().expect("honest driver thread panicked")).collect();

    let stats = server.stop();
    eprintln!(
        "  cell {cell_idx} server: {} conns, {} bad hellos, {} auth failures, {} sheds, \
         {} slow-loris kills, peak buffer {} B",
        stats.connections,
        stats.bad_hello,
        stats.auth_failures,
        stats.sheds,
        stats.slow_loris_closed,
        stats.peak_conn_buffer
    );
    // Bounded memory: the per-connection buffer may hold at most one
    // capped frame plus one in-flight read chunk.
    let bound = (FRAME_CAP + 64 * 1024 + 16) as u64;
    if stats.peak_conn_buffer > bound {
        eprintln!(
            "chaos_adversary: cell {cell_idx} peak connection buffer {} exceeds bound {bound}",
            stats.peak_conn_buffer
        );
        exit(1)
    }

    // Collector-side recovery backs the durability accounting for any
    // job the client couldn't settle (e.g. shed into local spill after
    // a partial stream).
    let states: HashMap<u64, RecoveryState> = pilgrim::recover::recover_dir(dir)
        .map(|r| r.jobs.iter().map(|j| (j.job, j.state)).collect())
        .unwrap_or_default();
    let mut result = CellResult { peers, durable: 0, lost: 0 };
    for out in &outcomes {
        if out.delivered
            || out.spilled
            || states.get(&out.job).is_some_and(|s| *s != RecoveryState::Lost)
        {
            result.durable += 1;
        } else {
            result.lost += 1;
            eprintln!("  cell {cell_idx}: honest job {} lost!", out.job);
        }
    }
    result
}

fn main() {
    // Gate 1: nothing anywhere in this process — collector threads
    // included — may panic while hostile peers are connected.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICS.fetch_add(1, Ordering::SeqCst);
        default_hook(info);
    }));

    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let jobs = flag(&args, "--jobs").unwrap_or(if quick { 3 } else { 4 }) as usize;
    let ranks = flag(&args, "--ranks").unwrap_or(2) as usize;
    let iters = flag(&args, "--iters").unwrap_or(if quick { 5 } else { 10 }) as usize;
    let peers = flag(&args, "--peers").unwrap_or(if quick { 8 } else { 16 });
    let seed = flag(&args, "--seed").unwrap_or(0x4144_5645);

    // Gate 2: the whole sweep must finish inside the deadline or it
    // *is* the hang the corpus hunts for.
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(240));
        if !DONE.load(Ordering::SeqCst) {
            eprintln!("chaos_adversary: watchdog fired — sweep hung");
            exit(1)
        }
    });

    let base = std::env::temp_dir().join(format!("pilgrim-chaos-adversary-{seed:x}"));
    let _ = std::fs::remove_dir_all(&base);

    let cells = [
        Cell { name: "authed", auth: true, peers_factor: 1, overload: false },
        Cell { name: "unauth", auth: false, peers_factor: 1, overload: false },
        Cell { name: "overload", auth: true, peers_factor: 2, overload: true },
    ];

    println!("chaos_adversary: {jobs} honest jobs x {ranks} ranks, {iters} iters, seed {seed:#x}");
    println!("| cell | peers | honest | durable | lost |");
    println!("|---|---:|---:|---:|---:|");

    let mut total_lost = 0usize;
    for (i, cell) in cells.iter().enumerate() {
        let dir = base.join(format!("cell-{i}"));
        let r = run_cell(&dir, i, cell, jobs, ranks, iters, peers, seed);
        println!("| {} | {} | {jobs} | {} | {} |", cell.name, r.peers, r.durable, r.lost);
        total_lost += r.lost;
    }
    let _ = std::fs::remove_dir_all(&base);
    DONE.store(true, Ordering::SeqCst);

    let panics = PANICS.load(Ordering::SeqCst);
    if panics > 0 {
        eprintln!("chaos_adversary: {panics} panics under hostile peers");
        exit(1)
    }
    if total_lost > 0 {
        eprintln!("chaos_adversary: {total_lost} honest jobs lost under hostile peers");
        exit(1)
    }
    println!("chaos_adversary: zero panics, zero hangs, every honest job durable");
}
