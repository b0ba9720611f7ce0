//! `chaos_ingest` — seeded fault-injection sweep over the ingest
//! service, with crash recovery.
//!
//! ```text
//! chaos_ingest [--jobs J] [--ranks R] [--iters I] [--seed S] [--quick]
//! ```
//!
//! Sweeps fault rate × shard count × {bare, WAL} cells. Each cell runs
//! `J` concurrent jobs against one [`pilgrim::IngestSession`] carrying
//! an [`pilgrim::IngestFaultPlan`]: workers panic while folding
//! segments, poisoned segments exhaust the retry budget and get
//! quarantined, container spills tear mid-write, WAL appends
//! short-write, and stalled ranks never complete. Half the jobs
//! are then "crashed" — streamed in full but never finished, exactly
//! what a dead collector leaves behind — before the session is dropped
//! and `IngestSession::recover` rebuilds the directory.
//!
//! The table reports, per cell, how many jobs survived the run itself
//! and how recovery classified the crashed remainder: with the WAL on,
//! crashed jobs come back `recovered`; bare, they are only as good as
//! the torn spill salvage. These are the numbers behind the
//! EXPERIMENTS.md chaos-ingest table. Jobs are opened in a fixed order
//! and every fault decision is a pure function of `--seed` and the
//! fault coordinates `(job, rank, seq)`, so the whole table reproduces
//! run to run no matter how the concurrent streams interleave.

use std::process::exit;
use std::sync::Arc;

use pilgrim::{
    IngestConfig, IngestFaultPlan, IngestSession, PilgrimConfig, PilgrimTracer, SegmentSink,
};
use pilgrim_bench::{flag, WORKLOADS};

/// Sweep-wide knobs, fixed across every cell.
#[derive(Clone, Copy)]
struct Sweep {
    jobs: usize,
    ranks: usize,
    iters: usize,
    seed: u64,
}

struct CellResult {
    finished_ok: usize,
    degraded: usize,
    recovered: usize,
    partial: usize,
    lost: usize,
    quarantined: u64,
    panics: u64,
    retries: u64,
    sealed: u64,
}

/// Runs one sweep cell and recovers its directory. Jobs `0..J/2` are
/// finished normally (they exercise in-flight fault tolerance); jobs
/// `J/2..J` are streamed but never finished, simulating a collector
/// that died mid-run, then the dropped session's directory is recovered.
fn run_cell(dir: &std::path::Path, wal: bool, rate: f64, shards: usize, sw: Sweep) -> CellResult {
    let Sweep { jobs, ranks, iters, seed } = sw;
    let faults = IngestFaultPlan::new(seed)
        .segment_panic_rate(rate)
        .poison_rate(rate / 4.0)
        .spill_io_rate(rate * 2.0)
        .wal_io_rate(rate / 2.0)
        .stall_rate(rate / 4.0);
    let session = Arc::new(
        IngestSession::new(
            IngestConfig::new().shards(shards).spill_dir(dir).wal(wal).faults(faults),
        )
        .unwrap_or_else(|e| {
            eprintln!("cannot start ingest session: {e}");
            exit(1)
        }),
    );

    let crash_from = jobs / 2;
    // Open every job from this thread, in order, so job IDs — and with
    // them the seeded fault coordinates (job, rank, seq) — don't depend
    // on thread scheduling. The streams themselves still race freely.
    // No per-job deadline: a wall-clock seal firing (or not) under
    // scheduler jitter would make the table non-reproducible; stalled
    // completions surface as degraded jobs at finish instead.
    let handles: Vec<_> = (0..jobs).map(|_| session.open_job(ranks, true)).collect();
    let outcomes: Vec<_> = handles
        .into_iter()
        .enumerate()
        .map(|(j, handle)| {
            let session = session.clone();
            std::thread::spawn(move || {
                let workload = WORKLOADS[j % WORKLOADS.len()];
                let body = mpi_workloads::by_name(workload, iters);
                let sink: Arc<dyn SegmentSink> = Arc::new(handle.clone());
                let cfg = PilgrimConfig::default();
                let wcfg = mpi_sim::WorldConfig::new(ranks).seed(0x5EED + j as u64);
                mpi_sim::World::run(
                    &wcfg,
                    |rank| PilgrimTracer::new(rank, cfg).with_segment_sink(sink.clone()),
                    move |env| body(env),
                );
                // The crash half: stream the whole world into the
                // session but never finish the job — the collector
                // "dies" holding an open job, and only the WAL (or a
                // torn spill) remembers it.
                if j < crash_from {
                    Some(session.finish_job(&handle))
                } else {
                    None
                }
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("driver thread panicked"))
        .collect();

    // Graceful shutdown so the fault counters are a complete snapshot,
    // not a mid-drain race; the crashed jobs stay unfinished either way.
    let session = Arc::try_unwrap(session).unwrap_or_else(|_| {
        eprintln!("a driver thread leaked its session handle");
        exit(1)
    });
    let stats = session.shutdown();

    let finished_ok = outcomes.iter().flatten().filter(|o| o.is_lossless()).count();
    let degraded = crash_from - finished_ok;
    let report = IngestSession::recover(dir).unwrap_or_else(|e| {
        eprintln!("recovery of {} failed: {e}", dir.display());
        exit(1)
    });
    // Only the crashed half shows up as partial/lost work; finished jobs
    // are either `recovered` straight off their intact container or were
    // degraded in-run (quarantine, seal) and already counted above.
    CellResult {
        finished_ok,
        degraded,
        recovered: report.recovered(),
        partial: report.partial(),
        lost: report.lost(),
        quarantined: stats.quarantined,
        panics: stats.worker_panics,
        retries: stats.retries,
        sealed: stats.jobs_sealed,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs = flag(&args, "--jobs").unwrap_or(8) as usize;
    let ranks = flag(&args, "--ranks").unwrap_or(4) as usize;
    let iters = flag(&args, "--iters").unwrap_or(20) as usize;
    let seed = flag(&args, "--seed").unwrap_or(0xC4A0_5EED);
    let quick = args.iter().any(|a| a == "--quick");

    // Injected worker panics are the point of the sweep, not noise —
    // keep their backtraces off the table. Real panics still print.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.contains("injected worker panic") {
            default_hook(info)
        }
    }));

    let rates: &[f64] = if quick { &[0.0, 0.05] } else { &[0.0, 0.01, 0.05, 0.15] };
    let shard_counts: &[usize] = if quick { &[4] } else { &[2, 4] };

    let base = std::env::temp_dir().join(format!("pilgrim-chaos-{seed:x}"));
    let _ = std::fs::remove_dir_all(&base);

    println!(
        "chaos_ingest: {jobs} jobs x {ranks} ranks, {iters} iters, seed {seed:#x} \
         (half the jobs crash mid-run, then recover)"
    );
    println!(
        "| wal | fault rate | shards | finished ok | degraded | recovered | partial | lost | \
         quarantined | panics | retries | sealed |"
    );
    println!("|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|");

    let mut total_unaccounted = 0usize;
    for &wal in &[false, true] {
        for &rate in rates {
            for &shards in shard_counts {
                let dir = base.join(format!(
                    "{}-r{}-s{shards}",
                    if wal { "wal" } else { "bare" },
                    (rate * 1000.0) as u64
                ));
                let r = run_cell(&dir, wal, rate, shards, Sweep { jobs, ranks, iters, seed });
                println!(
                    "| {} | {rate:.2} | {shards} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
                    if wal { "on" } else { "off" },
                    r.finished_ok,
                    r.degraded,
                    r.recovered,
                    r.partial,
                    r.lost,
                    r.quarantined,
                    r.panics,
                    r.retries,
                    r.sealed,
                );
                // The invariant the sweep gates on: recovery accounts for
                // every job it can see — nothing silently vanishes.
                let seen = r.recovered + r.partial + r.lost;
                if wal && seen < jobs {
                    eprintln!(
                        "chaos_ingest: WAL cell rate={rate} shards={shards} accounted for only \
                         {seen}/{jobs} jobs"
                    );
                    total_unaccounted += jobs - seen;
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&base);
    if total_unaccounted > 0 {
        eprintln!("chaos_ingest: {total_unaccounted} jobs dropped without a trace");
        exit(1)
    }
    println!("chaos_ingest: every job accounted for in every WAL cell");
}
