//! `pilgrimd` — the streaming multi-job trace collector built on
//! [`pilgrim::IngestSession`], with a `PNT1` networked mode.
//!
//! ```text
//! pilgrimd --jobs N [--ranks R] [--iters I] [--budget B] [--shards S] [--out DIR]
//!          [--wal] [--timeout-ms T] [--crash-at-job K]
//! pilgrimd serve --listen ADDR --out DIR [--shards S] [--timeout-ms T]
//!          [--expect-jobs N] [--crash-at-job K] [--io-timeout-ms T]
//!          [--auth-key-file PATH] [--max-conns N] [--max-frame-len N]
//!          [--max-bytes-per-sec N] [--max-frames-per-sec N]
//!          [--max-open-jobs N] [--max-wal-bytes N] [--shed-saturation F]
//!          [--drain-grace-ms T]
//! pilgrimd send --addr ADDR --jobs N [--ranks R] [--iters I] [--budget B]
//!          [--client-id C] [--spill DIR] [--retry-attempts A] [--backoff-ms B]
//!          [--finish-timeout-ms T] [--auth-key-file PATH] [--fault-seed S]
//!          [--refuse-rate P] [--cut-rate P] [--corrupt-rate P] [--dup-rate P]
//!          [--stall-rate P] [--partition-rate P]
//! ```
//!
//! The first form is the in-process collector: `N` concurrent simulated
//! worlds stream into one shared ingest session (see the legacy docs in
//! `run_local`). `serve` exposes the same session over TCP: it binds
//! `ADDR`, prints a schema-1 JSON line naming the bound address (so a
//! harness can read the port back), and collects `PNT1` streams from any
//! number of `send` clients, acking each frame only after it is durable
//! in a per-connection WAL under `DIR/wal/`. `send` drives `N` simulated
//! worlds through a [`pilgrim::NetClient`] — reconnecting with backoff,
//! resuming from acks, and degrading to a local spill when the retry
//! budget runs out — with every wire fault injectable through a seeded
//! [`pilgrim::NetFaultPlan`].
//!
//! Every mode ends with one machine-readable summary line on stdout:
//! a schema-1 JSON envelope (`{"schema":1,"command":...,"exit":E,...}`).
//! Exit codes are uniform: `0` all jobs lossless/delivered, `1` data
//! loss, `2` usage error, `3` degraded (the client fell back to local
//! spill but every job is accounted for). `--crash-at-job` dies by
//! `abort` and reports nothing — that is its job.
//!
//! `serve` shuts down gracefully on SIGINT/SIGTERM: it stops accepting,
//! drains in-flight connections for `--drain-grace-ms`, and still emits
//! the final envelope (with `"graceful":true`) — so an operator's ^C
//! never loses acked data or the summary line.

use std::io::Write as _;
use std::process::exit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pilgrim::{
    serve, AuthKey, GlobalTrace, IngestConfig, IngestSession, JobDesc, JsonObject, MetricsReport,
    NetClient, NetClientConfig, NetFaultPlan, NetServerConfig, PilgrimConfig, PilgrimTracer,
    RetryPolicy, SegmentSink,
};
use pilgrim_bench::{fflag, flag, sflag, WORKLOADS};

/// Reads `--auth-key-file` when present; a missing or empty key file is
/// a usage error (exit 2), not something to silently run without.
fn auth_key_flag(args: &[String]) -> Option<AuthKey> {
    let path = sflag(args, "--auth-key-file")?;
    match AuthKey::from_file(std::path::Path::new(&path)) {
        Ok(key) => Some(key),
        Err(e) => {
            eprintln!("cannot load auth key from {path}: {e}");
            exit(2)
        }
    }
}

/// `--ranks R` (default 4). The jobs rotate through [`WORKLOADS`], so a
/// rank count one of them cannot run is a usage error (exit 2), caught
/// before any rank thread starts.
fn ranks_flag(args: &[String]) -> usize {
    let ranks = flag(args, "--ranks").unwrap_or(4) as usize;
    for workload in WORKLOADS {
        if let Err(problem) = mpi_workloads::check(workload, ranks) {
            eprintln!("pilgrimd: {problem}");
            exit(2)
        }
    }
    ranks
}

/// Set by the SIGINT/SIGTERM handler; `serve` polls it and drains.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_shutdown_signal(_sig: i32) {
    // An atomic store is async-signal-safe; everything else happens on
    // the main thread when it notices the flag.
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Routes SIGINT (2) and SIGTERM (15) to [`on_shutdown_signal`] via the
/// raw libc `signal` symbol — no crate dependency, and `signal`'s
/// coarse semantics are all a latch flag needs.
fn install_shutdown_handler() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_shutdown_signal);
        signal(SIGTERM, on_shutdown_signal);
    }
}

/// Closes the one machine-readable summary line with `"exit"`, prints it
/// and exits with that code.
fn emit_envelope(envelope: &mut JsonObject, code: i32) -> ! {
    println!("{}", envelope.raw("exit", code).finish());
    exit(code)
}

/// The human-facing stderr summary: a stat set's named-field view as one
/// [`MetricsReport`] under `prefix`, the same report the tracer's numbers
/// leave through.
fn report_stats(who: &str, prefix: &str, fields: impl IntoIterator<Item = (&'static str, u64)>) {
    let mut report = MetricsReport::default();
    report.absorb(prefix, fields);
    eprintln!("{who}: {}", report.to_json());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => run_serve(&args[1..]),
        Some("send") => run_send(&args[1..]),
        _ => run_local(&args),
    }
}

// ---------------------------------------------------------------------------
// serve: the networked collector
// ---------------------------------------------------------------------------

fn run_serve(args: &[String]) -> ! {
    let listen = sflag(args, "--listen").unwrap_or_else(|| "127.0.0.1:0".into());
    let Some(out_dir) = sflag(args, "--out") else {
        eprintln!("serve needs --out DIR (the WAL and container directory)");
        exit(2)
    };
    let shards = flag(args, "--shards").unwrap_or(4) as usize;
    let timeout = flag(args, "--timeout-ms").map(Duration::from_millis);
    let io_timeout = flag(args, "--io-timeout-ms").unwrap_or(5000);
    let expect_jobs = flag(args, "--expect-jobs");
    let crash_at = flag(args, "--crash-at-job");
    let auth_key = auth_key_flag(args);
    let drain_grace = Duration::from_millis(flag(args, "--drain-grace-ms").unwrap_or(2000));

    // Bind with a short retry: a restarted collector may race the dying
    // incarnation's socket teardown.
    let mut listener = None;
    for _ in 0..200 {
        match std::net::TcpListener::bind(&listen) {
            Ok(l) => {
                listener = Some(l);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    let Some(listener) = listener else {
        eprintln!("cannot bind {listen}");
        exit(1)
    };

    let session = IngestSession::new(IngestConfig::new().shards(shards).spill_dir(&out_dir))
        .unwrap_or_else(|e| {
            eprintln!("cannot start ingest session: {e}");
            exit(1)
        });
    let mut cfg = NetServerConfig::new().io_timeout(Duration::from_millis(io_timeout));
    if let Some(t) = timeout {
        cfg = cfg.job_timeout(t);
    }
    if let Some(k) = crash_at {
        cfg = cfg.kill_after_finished(k);
    }
    if let Some(key) = auth_key {
        cfg = cfg.auth_key(key);
    }
    if let Some(n) = flag(args, "--max-conns") {
        cfg = cfg.max_connections(n as usize);
    }
    if let Some(n) = flag(args, "--max-frame-len") {
        cfg = cfg.max_frame_len(n as usize);
    }
    if let Some(n) = flag(args, "--max-bytes-per-sec") {
        cfg = cfg.max_conn_bytes_per_sec(n);
    }
    if let Some(n) = flag(args, "--max-frames-per-sec") {
        cfg = cfg.max_conn_frames_per_sec(n);
    }
    if let Some(n) = flag(args, "--max-open-jobs") {
        cfg = cfg.max_open_jobs(n);
    }
    if let Some(n) = flag(args, "--max-wal-bytes") {
        cfg = cfg.max_wal_bytes(n);
    }
    if let Some(f) = fflag(args, "--shed-saturation") {
        cfg = cfg.shed_saturation(f);
    }
    install_shutdown_handler();
    let server = serve(listener, session, cfg).unwrap_or_else(|e| {
        eprintln!("cannot serve on {listen}: {e}");
        exit(1)
    });

    // First line, flushed before any collection: the bound address, so a
    // harness that asked for port 0 can read the real port back.
    println!(
        "{}",
        JsonObject::envelope("serve").str("listening", &server.addr().to_string()).finish()
    );
    let _ = std::io::stdout().flush();
    eprintln!(
        "pilgrimd serve: listening on {}, spilling to {out_dir}{}{}",
        server.addr(),
        expect_jobs.map_or(String::new(), |n| format!(", expecting {n} jobs")),
        crash_at.map_or(String::new(), |k| format!(", crashing after job {k}"))
    );

    let mut graceful = false;
    loop {
        if SHUTDOWN.load(Ordering::SeqCst) {
            graceful = true;
            break;
        }
        if server.stopped() {
            if crash_at.is_some() {
                // The kill hook fired: die exactly like a crashed
                // collector — no drain, no envelope. The per-connection
                // WALs are the only thing left behind, on purpose.
                eprintln!("pilgrimd serve: injected crash after {} jobs", server.finished_jobs());
                std::process::abort();
            }
            break;
        }
        if expect_jobs.is_some_and(|n| server.finished_jobs() >= n) {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = if graceful {
        eprintln!(
            "pilgrimd serve: signal received, draining for up to {} ms",
            drain_grace.as_millis()
        );
        server.drain(drain_grace)
    } else {
        server.stop()
    };
    report_stats("pilgrimd serve", "net.server", stats.fields());
    let mut envelope = JsonObject::envelope("serve");
    stats.write_json(&mut envelope);
    envelope.raw("graceful", graceful);
    emit_envelope(&mut envelope, i32::from(stats.wal_errors > 0))
}

// ---------------------------------------------------------------------------
// send: the networked client fleet
// ---------------------------------------------------------------------------

fn run_send(args: &[String]) -> ! {
    let Some(addr) = sflag(args, "--addr") else {
        eprintln!("send needs --addr HOST:PORT");
        exit(2)
    };
    let jobs = flag(args, "--jobs").unwrap_or(4) as usize;
    let ranks = ranks_flag(args);
    let iters = flag(args, "--iters").unwrap_or(20) as usize;
    let budget = flag(args, "--budget").map(|b| b as usize);
    let client_id = flag(args, "--client-id").unwrap_or(1);
    let seed = flag(args, "--seed").unwrap_or(0x5EED);
    let spill = sflag(args, "--spill");
    let retry = RetryPolicy::default()
        .max_attempts(flag(args, "--retry-attempts").unwrap_or(8) as u32)
        .backoff(Duration::from_millis(flag(args, "--backoff-ms").unwrap_or(10)));
    let finish_timeout = Duration::from_millis(flag(args, "--finish-timeout-ms").unwrap_or(30_000));
    let faults = NetFaultPlan::new(flag(args, "--fault-seed").unwrap_or(0))
        .connect_refuse_rate(fflag(args, "--refuse-rate").unwrap_or(0.0))
        .cut_rate(fflag(args, "--cut-rate").unwrap_or(0.0))
        .corrupt_rate(fflag(args, "--corrupt-rate").unwrap_or(0.0))
        .duplicate_rate(fflag(args, "--dup-rate").unwrap_or(0.0))
        .stall_rate(fflag(args, "--stall-rate").unwrap_or(0.0))
        .partition_rate(fflag(args, "--partition-rate").unwrap_or(0.0));

    let mut ccfg = NetClientConfig::new(addr.clone())
        .client_id(client_id)
        .retry(retry)
        .finish_timeout(finish_timeout)
        .faults(faults);
    if let Some(dir) = &spill {
        ccfg = ccfg.spill_dir(dir);
    }
    if let Some(key) = auth_key_flag(args) {
        ccfg = ccfg.auth_key(key);
    }
    let client = Arc::new(NetClient::start(ccfg).unwrap_or_else(|e| {
        eprintln!("cannot start net client: {e}");
        exit(1)
    }));
    eprintln!("pilgrimd send: {jobs} jobs x {ranks} ranks, {iters} iters -> {addr}");

    let outcomes: Vec<_> = (0..jobs)
        .map(|j| {
            let client = client.clone();
            std::thread::spawn(move || {
                let workload = WORKLOADS[j % WORKLOADS.len()];
                let mut tcfg = PilgrimConfig::default();
                if let (Some(b), true) = (budget, j % 2 == 1) {
                    tcfg = tcfg.memory_budget(b);
                }
                let handle = client.open_job(j as u64, ranks, tcfg.merge_identity_check);
                let body = mpi_workloads::by_name(workload, iters);
                let sink: Arc<dyn SegmentSink> = Arc::new(handle.clone());
                let wcfg = mpi_sim::WorldConfig::new(ranks)
                    .seed(seed + j as u64)
                    .label(format!("{workload}#net{j}"));
                mpi_sim::World::run(
                    &wcfg,
                    |rank| PilgrimTracer::new(rank, tcfg).with_segment_sink(sink.clone()),
                    move |env| body(env),
                );
                (workload, handle.finish())
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("driver thread panicked"))
        .collect();

    let mut delivered = 0usize;
    let mut local = 0usize;
    let mut lost = 0usize;
    for (workload, out) in &outcomes {
        let verdict = if out.delivered {
            delivered += 1;
            if out.lossless == Some(true) {
                "DELIVERED"
            } else {
                "DELIVERED (lossy)"
            }
        } else if out.local_path.is_some() {
            local += 1;
            "LOCAL SPILL"
        } else {
            lost += 1;
            "LOST"
        };
        eprintln!(
            "  job {:>20} {workload:<10} {verdict}{}",
            out.job,
            if out.problems.is_empty() {
                String::new()
            } else {
                format!("  problems: {}", out.problems.join("; "))
            }
        );
    }
    let client = Arc::try_unwrap(client).unwrap_or_else(|_| {
        eprintln!("a driver thread leaked its client handle");
        exit(1)
    });
    let stats = client.shutdown();
    report_stats("pilgrimd send", "net.client", stats.fields());

    let code = if lost > 0 {
        1
    } else if stats.degraded || local > 0 {
        3
    } else {
        0
    };
    let mut envelope = JsonObject::envelope("send");
    envelope.raw("jobs", jobs).raw("delivered", delivered).raw("local", local).raw("lost", lost);
    stats.write_json(&mut envelope);
    emit_envelope(&mut envelope, code)
}

// ---------------------------------------------------------------------------
// local: the original in-process collector
// ---------------------------------------------------------------------------

fn run_local(args: &[String]) -> ! {
    let jobs = flag(args, "--jobs").unwrap_or(8) as usize;
    let ranks = ranks_flag(args);
    let iters = flag(args, "--iters").unwrap_or(30) as usize;
    let budget = flag(args, "--budget").map(|b| b as usize);
    let shards = flag(args, "--shards").unwrap_or(4) as usize;
    let wal = args.iter().any(|a| a == "--wal");
    let timeout = flag(args, "--timeout-ms").map(Duration::from_millis);
    let crash_at = flag(args, "--crash-at-job");
    let out_dir = sflag(args, "--out");

    let mut cfg = IngestConfig::new().shards(shards).wal(wal);
    if let Some(dir) = &out_dir {
        cfg = cfg.spill_dir(dir);
    }
    let session = Arc::new(IngestSession::new(cfg).unwrap_or_else(|e| {
        eprintln!("cannot start ingest session: {e}");
        exit(1)
    }));

    println!(
        "pilgrimd: {jobs} concurrent jobs x {ranks} ranks, {iters} iters, {shards} shards{}{}{}{}",
        budget.map_or(String::new(), |b| format!(", budget {b} B on odd jobs")),
        out_dir.as_deref().map_or(String::new(), |d| format!(", spilling to {d}")),
        if wal { ", WAL on" } else { "" },
        crash_at.map_or(String::new(), |k| format!(", crashing after job {k}"))
    );

    let finished = Arc::new(AtomicU64::new(0));
    // World execution + ingest + canonical finalize of every job.
    let start = Instant::now();
    let outcomes: Vec<_> = (0..jobs)
        .map(|j| {
            let session = session.clone();
            let finished = finished.clone();
            std::thread::spawn(move || {
                let workload = WORKLOADS[j % WORKLOADS.len()];
                let mut tcfg = PilgrimConfig::default();
                if let (Some(b), true) = (budget, j % 2 == 1) {
                    tcfg = tcfg.memory_budget(b);
                }
                let mut desc = JobDesc::new(workload, ranks).seed(0x5EED + j as u64).config(tcfg);
                if let Some(t) = timeout {
                    desc = desc.timeout(t);
                }
                let body = mpi_workloads::by_name(workload, iters);
                let outcome = session.submit_world(&desc, move |env| body(env));
                // The crash fixture: die hard — no Drop, no flush — the
                // moment the K-th job completes, leaving the rest of the
                // fleet mid-stream for `trace_tool recover` to rebuild.
                if let Some(k) = crash_at {
                    if finished.fetch_add(1, Ordering::SeqCst) + 1 >= k {
                        eprintln!("pilgrimd: injected crash after {k} finished jobs");
                        std::process::abort();
                    }
                }
                (workload, outcome)
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("driver thread panicked"))
        .collect();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut failures = 0usize;
    for (workload, out) in &outcomes {
        let trace = out.trace.as_ref();
        let lost = trace.map_or(0, |t| t.completeness.lost_ranks().len());
        let truncated = trace.map_or(0, |t| t.completeness.checkpoint_ranks().len());
        // Re-validate the spill: the container on disk must decode back
        // to exactly the trace the shard handed us.
        let spill_ok = match (&out.spill_path, trace) {
            (Some(path), Some(t)) => std::fs::read(path)
                .ok()
                .and_then(|b| GlobalTrace::decode_auto(&b).ok())
                .is_some_and(|back| back.serialize() == t.serialize()),
            (Some(_), None) => false,
            (None, _) => true,
        };
        let ok = out.is_lossless() && lost == 0 && truncated == 0 && spill_ok;
        if !ok {
            failures += 1;
        }
        println!(
            "  job {:>3} {workload:<10} {:>8} calls {:>5} segments {:>9} B  {}{}",
            out.job,
            out.calls,
            out.segments,
            out.ingested_bytes,
            if ok { "OK" } else { "LOSS" },
            if out.problems.is_empty() {
                String::new()
            } else {
                format!("  problems: {}", out.problems.join("; "))
            }
        );
    }

    let stats = session.stats();
    report_stats("session", "ingest", stats.fields());
    if failures > 0 {
        eprintln!("pilgrimd: {failures} of {jobs} jobs lost data");
    }
    let mut envelope = JsonObject::envelope("local");
    envelope.raw("jobs", jobs).raw("lossless", jobs - failures).raw("failures", failures);
    // With `wall_ms`, the sustained ingest rate of the fleet (calls/s).
    let calls: u64 = outcomes.iter().map(|(_, out)| out.calls).sum();
    envelope.raw("calls", calls).raw("wall_ms", format!("{wall_ms:.1}"));
    stats.write_json(&mut envelope);
    // The two keys schema 1 shipped before every counter was emitted
    // under its declared name (`bytes`, `jobs_sealed`).
    envelope.raw("ingested_bytes", stats.bytes).raw("sealed", stats.jobs_sealed);
    emit_envelope(&mut envelope, i32::from(failures > 0))
}
