//! The seeded-sweep ledger: one fault-injection sweep per layer of the
//! pipeline, each a fixed matrix whose table is a pure function of its
//! seeds. The `chaos` binary prints them as markdown; the output is
//! committed as `results/CHAOS.md` and compared byte for byte by
//! `scripts/check.sh` (every layer) and `crates/bench/tests/chaos.rs` (the
//! layers a debug build affords). Nothing here reads the environment or an
//! argument other than the layer filter.
//!
//! - `world`: kill `k` ranks mid-run ([`FaultPlan`]) and count how much of
//!   the trace the degraded merge keeps, with and without checkpoints.
//! - `governor`: one memory budget per row on the compression-hostile
//!   adversarial workload: the ladder stage reached and its size cost.
//! - `ingest`: worker panics, poisoned segments, torn spills and WAL
//!   appends, stalled ranks ([`IngestFaultPlan`]); half the jobs crash
//!   unfinished, then `IngestSession::recover` rebuilds the directory.
//! - `net`: refused connects, cuts, bit flips, duplicates, stalls and
//!   partitions on the `PNT1` wire ([`NetFaultPlan`]).
//! - `adversary`: hostile peers ([`AdversaryPlan`]) against a live
//!   collector while honest clients stream through it.
//!
//! Every layer runs under one panic counter and one watchdog: a panic
//! anywhere in the process (collector threads included) other than the
//! ingest layer's injected worker panics, or a layer outliving its
//! deadline, fails the run, as does any layer's own gate. Stdout carries
//! only seed-determined values; timing-dependent counters go to stderr.

use std::collections::HashMap;
use std::fmt::Display;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Arc, OnceLock};
use std::thread::{self, ScopedJoinHandle};
use std::time::Duration;

use mpi_sim::datatype::BasicType;
use mpi_sim::fault::splitmix;
use mpi_sim::types::ReduceOp;
use mpi_sim::{Env, FaultPlan, World, WorldConfig};
use mpi_workloads::adversarial::adversarial_seeded;
use pilgrim::frame::FrameReader;
use pilgrim::net::{read_handshake_frame, NetFrame};
use pilgrim::recover::recover_dir;
use pilgrim::wal::encode_frame;
use pilgrim::{
    challenge_response, serve, AdversaryKind, AdversaryPlan, AuthKey, DegradationStage,
    IngestConfig, IngestFaultPlan, IngestSession, NetClient, NetClientConfig, NetFaultPlan,
    NetJobOutcome, NetServerConfig, PilgrimConfig, PilgrimTracer, RecoveryState, RetryPolicy,
    SegmentSink, ServeHandle, TimingMode, NET_MAGIC, NET_VERSION,
};

use crate::{run_raw, WORKLOADS};

/// A layer's name and the function that sweeps it.
type Layer = (&'static str, fn(&mut Section));

/// The layers in print order.
const LAYERS: [Layer; 5] = [
    ("world", world),
    ("governor", governor),
    ("ingest", ingest),
    ("net", net),
    ("adversary", adversary),
];

/// How long one layer may run before the watchdog calls it hung.
const DEADLINE: Duration = Duration::from_secs(240);

/// Printed before the sections when every layer runs.
const PREAMBLE: &str = "# Seeded robustness sweeps\n\n\
    Output of `./target/release/chaos > results/CHAOS.md`: one section per layer, every value a \
    pure function of the seeds and sizes fixed in `crates/bench/src/chaos.rs`. \
    `scripts/check.sh` diffs this file; EXPERIMENTS.md reads it.\n";

/// Runs the `chaos` binary on its arguments (none, or `--layer <name>`),
/// printing each layer's section as it completes. Returns the exit code:
/// 0 when every gate held, 1 when one failed, 2 on a usage error.
pub fn run(args: &[String]) -> i32 {
    let only = match args {
        [] => None,
        [flag, name] if flag == "--layer" && LAYERS.iter().any(|(n, _)| n == name) => {
            Some(name.as_str())
        }
        _ => {
            let names: Vec<&str> = LAYERS.iter().map(|(name, _)| *name).collect();
            eprintln!("usage: chaos [--layer {}]", names.join("|"));
            return 2;
        }
    };
    let layers = LAYERS.iter().filter(|(name, _)| only.is_none_or(|o| o == *name));
    count_panics();
    let (started, layer_started) = channel::<&str>();
    let watchdog = thread::spawn(move || {
        let mut layer = "";
        loop {
            match layer_started.recv_timeout(DEADLINE) {
                Ok(next) => layer = next,
                Err(RecvTimeoutError::Disconnected) => return,
                Err(RecvTimeoutError::Timeout) => {
                    fail(format!("watchdog: layer {layer} still running after {DEADLINE:?}"))
                }
            }
        }
    });

    if only.is_none() {
        print!("{PREAMBLE}");
    }
    let mut failures = Vec::new();
    for (i, (name, layer)) in layers.enumerate() {
        let _ = started.send(name);
        let mut section = Section::default();
        // The hook has already counted a panic; catching it here only
        // keeps the scratch cleanup and the remaining layers.
        let _ = catch_unwind(AssertUnwindSafe(|| layer(&mut section)));
        let gap = if i > 0 || only.is_none() { "\n" } else { "" };
        print!("{gap}## {name}\n{}", section.md);
        let _ = std::io::stdout().flush();
        failures.extend(section.failures.into_iter().map(|f| format!("{name}: {f}")));
    }
    drop(started);
    let _ = watchdog.join();
    let _ = std::fs::remove_dir_all(scratch());

    let panics = PANICS.load(Ordering::SeqCst);
    if panics > 0 {
        failures.push(format!("{panics} unexpected panic(s)"));
    }
    for f in &failures {
        eprintln!("chaos: {f}");
    }
    i32::from(!failures.is_empty())
}

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

static PANICS: AtomicU64 = AtomicU64::new(0);

/// Installs the one panic hook. It goes in before any world runs, so
/// `mpi_sim`'s fault hook wraps it and keeps controlled rank unwinds
/// (`RankKilled`, `PeerFailure`) from reaching it. Every other panic is
/// counted and reported, except the ingest layer's injected ones, which
/// are the point of that sweep.
fn count_panics() {
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.contains("injected worker panic") {
            PANICS.fetch_add(1, Ordering::SeqCst);
            report(info);
        }
    }));
}

/// This process's scratch directory. It is keyed by pid, so concurrent
/// runs never share (or delete) each other's, and removed on every exit.
fn scratch() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| std::env::temp_dir().join(format!("pilgrim-chaos-{}", std::process::id())))
}

/// Gives up on the whole run: removes the scratch directory and exits 1.
fn fail(msg: impl Display) -> ! {
    eprintln!("chaos: {msg}");
    let _ = std::fs::remove_dir_all(scratch());
    std::process::exit(1)
}

/// Unwraps a setup step, or fails the run naming it.
fn setup<T, E: Display>(what: &str, r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| fail(format!("cannot {what}: {e}")))
}

/// Joins a driver thread; the hook has already reported a panic in it.
fn join<T>(handle: ScopedJoinHandle<'_, T>) -> T {
    handle.join().unwrap_or_else(|_| fail("a driver thread panicked"))
}

/// A layer's markdown and the gate failures it found.
#[derive(Default)]
struct Section {
    md: String,
    failures: Vec<String>,
}

impl Section {
    /// Appends one table under its parameter line. The first `keys`
    /// columns name the row (left-aligned); the rest are measured values
    /// (right-aligned).
    fn table(&mut self, params: String, keys: usize, header: &[&str], rows: &[Vec<String>]) {
        let align: Vec<&str> =
            (0..header.len()).map(|c| if c < keys { "---" } else { "---:" }).collect();
        self.md += &format!("\n{params}\n\n| {} |\n|{}|\n", header.join(" | "), align.join("|"));
        for row in rows {
            self.md += &format!("| {} |\n", row.join(" | "));
        }
    }
}

/// The size of every honest job the `net` and `adversary` layers stream.
const HONEST_RANKS: usize = 2;
const HONEST_ITERS: usize = 10;

/// A loopback collector over a 2-shard ingest session spilling into `dir`.
fn collector(dir: &Path, cfg: NetServerConfig) -> ServeHandle {
    let listener = setup("bind loopback", TcpListener::bind("127.0.0.1:0"));
    let ingest = IngestConfig::new().shards(2).spill_dir(dir);
    let session = setup("start ingest session", IngestSession::new(ingest));
    setup("serve", serve(listener, session, cfg))
}

/// Streams `jobs` honest jobs into the collector at `addr`, one
/// [`NetClient`] per job so a tripped partition or an exhausted retry
/// budget degrades exactly that job. Client ids and world seeds are fixed
/// per `(cell, job)`, so every seeded fault coordinate reproduces. Jobs
/// rotate through [`WORKLOADS`]; odd jobs trace under a memory budget so
/// the governor seals segments mid-run and each stream carries many
/// frames. `layer` adds the retry policy and the faults or key its sweep
/// is about.
fn honest_jobs(
    addr: &str,
    dir: &Path,
    cell: usize,
    jobs: usize,
    seed: u64,
    layer: &(dyn Fn(NetClientConfig) -> NetClientConfig + Sync),
) -> Vec<NetJobOutcome> {
    thread::scope(|s| {
        let drivers: Vec<_> = (0..jobs)
            .map(|j| {
                s.spawn(move || {
                    let cfg = NetClientConfig::new(addr)
                        .client_id(cell as u64 * 64 + j as u64 + 1)
                        .heartbeat(Duration::from_millis(200))
                        .finish_timeout(Duration::from_secs(60))
                        .spill_dir(dir.join(format!("client-{j}")));
                    let client = setup("start net client", NetClient::start(layer(cfg)));
                    let mut tcfg = PilgrimConfig::default();
                    if j % 2 == 1 {
                        tcfg = tcfg.memory_budget(3000);
                    }
                    let handle = client.open_job(0, HONEST_RANKS, tcfg.merge_identity_check);
                    let body = mpi_workloads::by_name(WORKLOADS[j % WORKLOADS.len()], HONEST_ITERS);
                    let sink: Arc<dyn SegmentSink> = Arc::new(handle.clone());
                    World::run(
                        &WorldConfig::new(HONEST_RANKS).seed(seed ^ (j as u64) << 8),
                        |rank| PilgrimTracer::new(rank, tcfg).with_segment_sink(sink.clone()),
                        move |env| body(env),
                    );
                    let out = handle.finish();
                    let stats = client.shutdown();
                    eprintln!(
                        "  cell {cell} job {j}: {} connects, {} retransmits, {} spilled, \
                         {} busy sheds, delivered={}",
                        stats.connects,
                        stats.retransmits,
                        stats.spilled_records,
                        stats.busy_sheds,
                        out.delivered
                    );
                    out
                })
            })
            .collect();
        drivers.into_iter().map(join).collect()
    })
}

/// Where the honest jobs' data ended up, once the collector has stopped.
struct Durability {
    /// The collector acked the finish.
    delivered: usize,
    /// Finalized in the client's local spill, or rebuilt (not `Lost`) by
    /// collector-side recovery over the per-connection WALs.
    salvaged: usize,
    /// Nowhere: a silent drop.
    lost: usize,
}

fn durability(dir: &Path, outcomes: &[NetJobOutcome]) -> Durability {
    let states: HashMap<u64, RecoveryState> = recover_dir(dir)
        .map(|r| r.jobs.iter().map(|j| (j.job, j.state)).collect())
        .unwrap_or_default();
    let mut d = Durability { delivered: 0, salvaged: 0, lost: 0 };
    for out in outcomes {
        if out.delivered {
            d.delivered += 1;
        } else if out.local_path.is_some()
            || states.get(&out.job).is_some_and(|s| *s != RecoveryState::Lost)
        {
            d.salvaged += 1;
        } else {
            d.lost += 1;
            eprintln!("  {}: job {} lost; problems: {:?}", dir.display(), out.job, out.problems);
        }
    }
    d
}

// ---------------------------------------------------------------------------
// world: rank kills and the degraded merge
// ---------------------------------------------------------------------------

const CHECKPOINT_INTERVAL: u64 = 10;

/// Deterministic wildcard-free workload (allreduce + ring sendrecv).
fn kill_workload(env: &mut Env, iters: usize) {
    let me = env.world_rank();
    let n = env.world_size();
    let world = env.comm_world();
    let dt = env.basic(BasicType::LongLong);
    let buf = env.malloc(8);
    let tmp = env.malloc(8);
    for i in 0..iters {
        env.heap_write_u64s(buf, &[(me + i) as u64]);
        env.allreduce(buf, tmp, 1, dt, ReduceOp::Max, world);
        let right = ((me + 1) % n) as i32;
        let left = ((me + n - 1) % n) as i32;
        env.sendrecv(buf, 1, dt, right, 7, tmp, 1, dt, left, 7, world);
    }
}

/// `k` distinct victims in `1..nranks` with kill points spread over the
/// run, all derived from `seed`.
fn plan_kills(seed: u64, nranks: usize, iters: usize, k: usize) -> FaultPlan {
    let mut state = seed ^ 0xC5A05;
    let mut next = || {
        let z = splitmix(state);
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z
    };
    let mut victims: Vec<usize> = Vec::new();
    while victims.len() < k {
        let v = 1 + (next() as usize) % (nranks - 1);
        if !victims.contains(&v) {
            victims.push(v);
        }
    }
    let max_calls = (2 * iters) as u64; // init + iters * (allreduce + sendrecv)
    victims.into_iter().fold(FaultPlan::new(seed), |plan, v| plan.kill(v, 1 + next() % max_calls))
}

/// Kills 0–4 seeded victims (never rank 0, which holds the merged trace)
/// and reports the calls and bytes the degraded merge kept. Rows name the
/// *planned* kills; `lost` / `truncated` count what actually happened.
fn world(s: &mut Section) {
    for (seed, nranks, iters) in [(0x5EED, 8, 60), (42, 16, 100)] {
        let mut rows = Vec::new();
        for kills in 0..=4 {
            // A healthy run: checkpoints change nothing in the trace.
            let modes: &[bool] = if kills == 0 { &[false] } else { &[false, true] };
            for &checkpoints in modes {
                rows.push(world_row(seed, nranks, iters, kills, checkpoints));
            }
        }
        let params = format!(
            "{nranks} ranks, {iters} iters, seed {seed:#x}, checkpoint every \
             {CHECKPOINT_INTERVAL} calls"
        );
        let header = [
            "kills",
            "checkpoints",
            "lost",
            "truncated",
            "calls traced",
            "in trace",
            "recovered",
            "trace bytes",
        ];
        s.table(params, 2, &header, &rows);
    }
}

fn world_row(seed: u64, nranks: usize, iters: usize, kills: usize, ckpt: bool) -> Vec<String> {
    let mut wcfg = WorldConfig::new(nranks);
    if kills > 0 {
        wcfg.faults = Some(plan_kills(seed, nranks, iters, kills));
    }
    let mut tcfg = PilgrimConfig::new().merge_timeout_ms(400);
    if ckpt {
        tcfg = tcfg.checkpoint_interval(CHECKPOINT_INTERVAL);
    }
    let mut out = World::run_faulty(
        &wcfg,
        |rank| PilgrimTracer::new(rank, tcfg),
        move |env| kill_workload(env, iters),
    );
    let traced: u64 = out
        .tracers
        .iter()
        .filter_map(|t| t.as_ref().map(|t| t.call_count()))
        .chain(out.failures.iter().map(|f| f.calls))
        .sum();
    let trace = out.tracers[0]
        .as_mut()
        .expect("rank 0 survives: plans never target it")
        .take_output()
        .trace
        .unwrap_or_else(|| fail(format!("world: rank 0 produced no trace with {kills} kills")));
    let kept = trace.total_calls();
    let pct = if traced == 0 { 100.0 } else { 100.0 * kept as f64 / traced as f64 };
    vec![
        kills.to_string(),
        (if ckpt { "on" } else { "off" }).to_string(),
        trace.completeness.lost_ranks().len().to_string(),
        trace.completeness.checkpoint_ranks().len().to_string(),
        traced.to_string(),
        kept.to_string(),
        format!("{pct:.1}%"),
        trace.serialize().len().to_string(),
    ]
}

// ---------------------------------------------------------------------------
// governor: memory budgets on a compression-hostile workload
// ---------------------------------------------------------------------------

/// The same seeded adversarial kernel under one per-rank budget per row:
/// peak governed working set, highest ladder stage, transition and seal
/// counts, trace size and its ratio to the raw trace.
fn governor(s: &mut Section) {
    const RANKS: usize = 4;
    const ITERS: usize = 300;
    const SEED: u64 = 42;
    let raw = run_raw(RANKS, Arc::new(|env: &mut Env| adversarial_seeded(env, ITERS, SEED)));
    let budgets = [None, Some(1 << 20), Some(256 << 10), Some(64 << 10), Some(16 << 10)];
    let rows: Vec<_> = budgets
        .into_iter()
        .map(|budget: Option<usize>| {
            let mut cfg = PilgrimConfig::new().timing(TimingMode::Lossy { base: 1.2 });
            if let Some(b) = budget {
                cfg = cfg.memory_budget(b);
            }
            let mut tracers = World::run(
                &WorldConfig::new(RANKS),
                move |rank| PilgrimTracer::new(rank, cfg),
                |env: &mut Env| adversarial_seeded(env, ITERS, SEED),
            );
            let events: Vec<_> = tracers.iter().flat_map(|t| t.governor().events()).collect();
            let stage = events.iter().map(|e| e.stage).max_by_key(|s| s.code());
            let seals = events.iter().filter(|e| e.stage == DegradationStage::SealSegment).count();
            let transitions = events.len();
            let peak = tracers.iter().map(|t| t.governor().peak_bytes()).max().unwrap_or(0);
            let trace = tracers[0].take_output().trace.expect("rank 0 holds the merged trace");
            let bytes = trace.serialize().len();
            vec![
                budget.map_or("none".into(), |b| format!("{} KiB", b >> 10)),
                // An unbudgeted governor does no accounting, so it has no peak.
                if budget.is_some() { peak.to_string() } else { "-".into() },
                stage.map_or("-", DegradationStage::name).to_string(),
                transitions.to_string(),
                seals.to_string(),
                bytes.to_string(),
                format!("{:.1}x", raw as f64 / bytes as f64),
            ]
        })
        .collect();
    let params = format!(
        "adversarial workload, {RANKS} ranks, {ITERS} iters, seed {SEED}, raw trace {raw} bytes"
    );
    let header =
        ["budget", "peak bytes", "stage reached", "transitions", "seals", "trace bytes", "ratio"];
    s.table(params, 1, &header, &rows);
}

// ---------------------------------------------------------------------------
// ingest: collector faults, a crash, and recovery
// ---------------------------------------------------------------------------

const INGEST_JOBS: usize = 8;
const INGEST_RANKS: usize = 4;
const INGEST_ITERS: usize = 20;
const INGEST_SEED: u64 = 0xC4A0_5EED;

/// Fault rate × shard count × {bare, WAL}. Gate: recovery accounts for
/// every job of a WAL cell — nothing silently vanishes.
fn ingest(s: &mut Section) {
    let mut rows = Vec::new();
    for wal in [false, true] {
        for rate in [0.0, 0.01, 0.05, 0.15] {
            for shards in [2, 4] {
                let tag = if wal { "wal" } else { "bare" };
                let permille = (rate * 1000.0) as u64;
                let dir = scratch().join(format!("ingest-{tag}-r{permille}-s{shards}"));
                let (row, seen) = ingest_cell(&dir, wal, rate, shards);
                if wal && seen < INGEST_JOBS {
                    s.failures.push(format!(
                        "WAL cell rate={rate} shards={shards} accounted for only \
                         {seen}/{INGEST_JOBS} jobs"
                    ));
                }
                rows.push(row);
            }
        }
    }
    let params = format!(
        "{INGEST_JOBS} jobs x {INGEST_RANKS} ranks, {INGEST_ITERS} iters, seed {INGEST_SEED:#x}; \
         half the jobs crash mid-run, then recover"
    );
    let header = [
        "wal",
        "fault rate",
        "shards",
        "finished ok",
        "degraded",
        "recovered",
        "partial",
        "lost",
        "quarantined",
        "panics",
        "retries",
        "sealed",
    ];
    s.table(params, 3, &header, &rows);
}

/// Runs one cell: jobs `0..J/2` finish normally (in-flight fault
/// tolerance); jobs `J/2..J` stream in full but never finish — what a dead
/// collector leaves behind — before the session shuts down and
/// `IngestSession::recover` rebuilds `dir`. Returns the table row and how
/// many jobs recovery saw.
fn ingest_cell(dir: &Path, wal: bool, rate: f64, shards: usize) -> (Vec<String>, usize) {
    let faults = IngestFaultPlan::new(INGEST_SEED)
        .segment_panic_rate(rate)
        .poison_rate(rate / 4.0)
        .spill_io_rate(rate * 2.0)
        .wal_io_rate(rate / 2.0)
        .stall_rate(rate / 4.0);
    let cfg = IngestConfig::new().shards(shards).spill_dir(dir).wal(wal).faults(faults);
    let session = setup("start ingest session", IngestSession::new(cfg));
    let crash_from = INGEST_JOBS / 2;
    // Open every job from this thread, in order, so job ids — and with
    // them the seeded fault coordinates (job, rank, seq) — don't depend on
    // scheduling; the streams still race freely. No per-job deadline: a
    // wall-clock seal firing (or not) under jitter would make the table
    // irreproducible, so stalled completions surface as degraded jobs.
    let handles: Vec<_> = (0..INGEST_JOBS).map(|_| session.open_job(INGEST_RANKS, true)).collect();
    let shared = &session;
    let finished: Vec<_> = thread::scope(|s| {
        let drivers: Vec<_> = handles
            .into_iter()
            .enumerate()
            .map(|(j, handle)| {
                s.spawn(move || {
                    let body = mpi_workloads::by_name(WORKLOADS[j % WORKLOADS.len()], INGEST_ITERS);
                    let sink: Arc<dyn SegmentSink> = Arc::new(handle.clone());
                    World::run(
                        &WorldConfig::new(INGEST_RANKS).seed(0x5EED + j as u64),
                        |rank| {
                            PilgrimTracer::new(rank, PilgrimConfig::default())
                                .with_segment_sink(sink.clone())
                        },
                        move |env| body(env),
                    );
                    (j < crash_from).then(|| shared.finish_job(&handle))
                })
            })
            .collect();
        drivers.into_iter().map(join).collect()
    });
    // A graceful shutdown makes the fault counters a complete snapshot;
    // the crashed jobs stay unfinished either way.
    let stats = session.shutdown();
    let ok = finished.iter().flatten().filter(|o| o.is_lossless()).count();
    let report = setup("recover the ingest directory", IngestSession::recover(dir));
    let (recovered, partial, lost) = (report.recovered(), report.partial(), report.lost());
    let row = vec![
        (if wal { "on" } else { "off" }).to_string(),
        format!("{rate:.2}"),
        shards.to_string(),
        ok.to_string(),
        (crash_from - ok).to_string(),
        recovered.to_string(),
        partial.to_string(),
        lost.to_string(),
        stats.quarantined.to_string(),
        stats.worker_panics.to_string(),
        stats.retries.to_string(),
        stats.jobs_sealed.to_string(),
    ];
    (row, recovered + partial + lost)
}

// ---------------------------------------------------------------------------
// net: wire faults between cooperating peers
// ---------------------------------------------------------------------------

/// One loopback collector per cell, one seeded fault class per cell.
/// Gate: no silent drops — every job ends delivered, locally spilled, or
/// recoverable from the collector's WALs.
fn net(s: &mut Section) {
    const JOBS: usize = 6;
    const SEED: u64 = 0x4E45_5443;
    let p = NetFaultPlan::new(SEED);
    // (cell, rate, client retry attempts, plan): the refuse-all cell
    // shrinks the retry budget so the degrade to local spill fires fast.
    let cells = [
        ("clean", 0.0, 8, p.clone()),
        ("refuse", 0.3, 8, p.clone().connect_refuse_rate(0.3)),
        ("refuse", 0.7, 8, p.clone().connect_refuse_rate(0.7)),
        ("cut", 0.1, 8, p.clone().cut_rate(0.1)),
        ("cut", 0.3, 8, p.clone().cut_rate(0.3)),
        ("corrupt", 0.1, 8, p.clone().corrupt_rate(0.1)),
        ("corrupt", 0.3, 8, p.clone().corrupt_rate(0.3)),
        ("dup", 0.2, 8, p.clone().duplicate_rate(0.2)),
        ("dup", 0.5, 8, p.clone().duplicate_rate(0.5)),
        ("stall", 0.3, 8, p.clone().stall_rate(0.3).stall_ms(2)),
        ("refuse-all", 1.0, 2, p.clone().connect_refuse_rate(1.0)),
        ("partition", 0.02, 4, p.clone().partition_rate(0.02)),
        ("partition", 0.05, 4, p.clone().partition_rate(0.05)),
        ("mixed", 0.1, 8, p.cut_rate(0.1).corrupt_rate(0.1).duplicate_rate(0.2)),
    ];
    let mut rows = Vec::new();
    for (i, (name, rate, attempts, plan)) in cells.into_iter().enumerate() {
        let dir = scratch().join(format!("net-{i}"));
        let server = collector(&dir, NetServerConfig::new());
        let retry = RetryPolicy::default().max_attempts(attempts).backoff(Duration::from_millis(5));
        let layer = |cfg: NetClientConfig| cfg.retry(retry).faults(plan.clone());
        let outcomes = honest_jobs(&server.addr().to_string(), &dir, i, JOBS, SEED, &layer);
        server.stop();
        let d = durability(&dir, &outcomes);
        if d.lost > 0 {
            s.failures.push(format!("cell {name} {rate:.2}: {} jobs silently dropped", d.lost));
        }
        let counts = [JOBS, d.delivered, d.salvaged, d.lost].map(|n| n.to_string());
        rows.push([vec![name.to_string(), format!("{rate:.2}")], counts.to_vec()].concat());
    }
    let params =
        format!("{JOBS} jobs x {HONEST_RANKS} ranks, {HONEST_ITERS} iters, seed {SEED:#x}");
    s.table(params, 2, &["cell", "rate", "jobs", "delivered", "salvaged", "lost"], &rows);
}

// ---------------------------------------------------------------------------
// adversary: hostile peers against a live collector
// ---------------------------------------------------------------------------

/// Decode-size cap handed to every adversary cell's collector; the
/// bounded-memory gate holds its peak connection buffer under it plus one
/// 64 KiB read chunk.
const FRAME_CAP: usize = 1 << 20;

/// The seeded corpus against an authenticated collector, an
/// unauthenticated one, and an overloaded one (`max_open_jobs` squeezed so
/// honest jobs get shed with `Busy`). Gates, beside the run-wide panic and
/// hang gates: bounded connection buffers, and every honest job durable.
fn adversary(s: &mut Section) {
    const JOBS: usize = 4;
    const PEERS: u64 = 16;
    const SEED: u64 = 0x4144_5645;
    // (cell, authenticated, hostile peers, overloaded)
    let cells = [
        ("authed", true, PEERS, false),
        ("unauth", false, PEERS, false),
        ("overload", true, 2 * PEERS, true),
    ];
    let mut rows = Vec::new();
    for (i, (name, auth, peers, overload)) in cells.into_iter().enumerate() {
        let dir = scratch().join(format!("adversary-{i}"));
        let key = auth.then(|| AuthKey::from_bytes(b"chaos-adversary-sweep-key")).flatten();
        let mut scfg = NetServerConfig::new()
            .io_timeout(Duration::from_millis(500))
            .max_frame_len(FRAME_CAP)
            .max_connections(64);
        if let Some(k) = &key {
            scfg = scfg.auth_key(k.clone());
        }
        if overload {
            scfg = scfg.max_open_jobs(1);
        }
        let server = collector(&dir, scfg);
        let addr = server.addr().to_string();
        let plan = AdversaryPlan::new(SEED ^ i as u64);
        let retry = RetryPolicy::default().max_attempts(6).backoff(Duration::from_millis(10));
        let layer = |cfg: NetClientConfig| match &key {
            Some(k) => cfg.retry(retry).auth_key(k.clone()),
            None => cfg.retry(retry),
        };
        // Honest clients and hostile peers run concurrently, by design.
        let outcomes = thread::scope(|sc| {
            let honest = sc.spawn(|| honest_jobs(&addr, &dir, i, JOBS, SEED, &layer));
            let (addr, plan, key) = (&addr, &plan, key.as_ref());
            let hostile: Vec<_> = (0..peers)
                .map(|peer| sc.spawn(move || hostile_peer(addr, plan, peer, key)))
                .collect();
            hostile.into_iter().for_each(join);
            join(honest)
        });

        let stats = server.stop();
        eprintln!(
            "  cell {i} server: {} conns, {} bad hellos, {} auth failures, {} sheds, \
             {} slow-loris kills, peak buffer {} B",
            stats.connections,
            stats.bad_hello,
            stats.auth_failures,
            stats.sheds,
            stats.slow_loris_closed,
            stats.peak_conn_buffer
        );
        // A connection may buffer at most one capped frame plus one
        // in-flight read chunk.
        let bound = (FRAME_CAP + 64 * 1024 + 16) as u64;
        if stats.peak_conn_buffer > bound {
            s.failures.push(format!(
                "cell {name}: peak connection buffer {} exceeds bound {bound}",
                stats.peak_conn_buffer
            ));
        }
        let d = durability(&dir, &outcomes);
        if d.lost > 0 {
            s.failures.push(format!("cell {name}: {} honest jobs lost", d.lost));
        }
        let counts = [JOBS, d.delivered + d.salvaged, d.lost].map(|n| n.to_string());
        rows.push([vec![name.to_string(), peers.to_string()], counts.to_vec()].concat());
    }
    let params =
        format!("{JOBS} honest jobs x {HONEST_RANKS} ranks, {HONEST_ITERS} iters, seed {SEED:#x}");
    s.table(params, 1, &["cell", "peers", "honest", "durable", "lost"], &rows);
}

/// Reads one server frame, tolerating the leading `PNT1` magic (the
/// server prefixes it on its first frame only). `None` on close, timeout,
/// or anything unparseable — an adversary doesn't care.
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
fn hostile_peer(addr: &str, plan: &AdversaryPlan, peer: u64, key: Option<&AuthKey>) {
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
                thread::sleep(Duration::from_millis(25));
            }
        }
        AdversaryKind::ConnectHold => {
            // Hold an admission slot without ever writing.
            thread::sleep(Duration::from_millis(400));
        }
        AdversaryKind::MidHandshakeDisconnect => {
            let _ = stream.write_all(&NET_MAGIC[..3]);
        }
    }
}
