//! `ingest_bench` — streaming-ingest throughput across concurrent jobs.
//!
//! ```text
//! ingest_bench [--ranks R] [--iters I] [--shards S] [--max-jobs J]
//!              [--reps N] [--json-out PATH] [--check-against PATH]
//! ```
//!
//! Sweeps the number of concurrent jobs (1, 2, 4, … up to `--max-jobs`,
//! default 16), each job a full `R`-rank simulated world streaming its
//! grammar segments into one shared [`pilgrim::IngestSession`]. Reports
//! wall time, sustained calls/sec and jobs/sec, and how often producers
//! hit shard-queue backpressure — the numbers behind the EXPERIMENTS.md
//! ingest table. `--json-out PATH` additionally writes the distilled
//! rows as a schema-1 JSON document (the `BENCH_ingest.json` baseline
//! that `scripts/check.sh` keeps in the repo).
//!
//! `--check-against PATH` turns the run into a regression gate: the
//! sweep runs `--reps` times (default 2 under the gate, 1 otherwise),
//! each row keeps its best calls/sec across reps (max damps scheduler
//! noise on shared CI machines), and any row that lands below 90% of
//! the committed baseline's calls/sec fails the run with exit 1.
//!
//! The committed baseline should be refreshed with `--reps 3 --stat
//! min`: recording the *worst* rep puts the baseline at the low end of
//! the machine's noise band, so the gate's best-of-reps only falls
//! below the 90% floor when the whole distribution shifted down — a
//! real regression, not a preempted run.

use std::process::exit;
use std::sync::Arc;
use std::time::Instant;

use pilgrim::{IngestConfig, IngestSession, JobDesc, PilgrimConfig};
use pilgrim_bench::{flag, gate, GateArgs, GateRow, GateSpec, WORKLOADS};

const GATE: GateSpec =
    GateSpec { bench: "ingest_bench", key: "jobs", rate: "calls_per_sec", min_wall_ms: 10.0 };

struct Row {
    jobs: usize,
    wall_ms: f64,
    calls: u64,
    calls_per_sec: f64,
    backpressure: u64,
}

fn run_sweep(ranks: usize, iters: usize, shards: usize, max_jobs: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut jobs = 1usize;
    while jobs <= max_jobs {
        let session =
            Arc::new(IngestSession::new(IngestConfig::new().shards(shards)).unwrap_or_else(|e| {
                eprintln!("cannot start ingest session: {e}");
                exit(1)
            }));
        let start = Instant::now();
        let outcomes: Vec<_> = (0..jobs)
            .map(|j| {
                let session = session.clone();
                std::thread::spawn(move || {
                    let workload = WORKLOADS[j % WORKLOADS.len()];
                    let desc = JobDesc::new(workload, ranks)
                        .seed(0x5EED + j as u64)
                        .config(PilgrimConfig::default());
                    let body = mpi_workloads::by_name(workload, iters);
                    session.submit_world(&desc, move |env| body(env))
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect();
        let wall = start.elapsed();
        let stats = session.stats();
        let lossless = outcomes.iter().all(|o| o.is_lossless());
        if !lossless {
            eprintln!("ingest_bench: loss at {jobs} concurrent jobs");
            exit(1)
        }
        let calls: u64 = outcomes.iter().map(|o| o.calls).sum();
        let secs = wall.as_secs_f64().max(1e-9);
        rows.push(Row {
            jobs,
            wall_ms: wall.as_secs_f64() * 1e3,
            calls,
            calls_per_sec: calls as f64 / secs,
            backpressure: stats.backpressure,
        });
        jobs *= 2;
    }
    rows
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ranks = flag(&args, "--ranks").unwrap_or(4) as usize;
    let iters = flag(&args, "--iters").unwrap_or(40) as usize;
    let shards = flag(&args, "--shards").unwrap_or(4) as usize;
    let max_jobs = flag(&args, "--max-jobs").unwrap_or(16) as usize;
    let gate_args = GateArgs::parse(&args);
    let reps = gate_args.reps;

    println!(
        "ingest_bench: {ranks}-rank jobs, {iters} iters, {shards} shards (rotating {}), {reps} \
         rep{}",
        WORKLOADS.join("/"),
        if reps == 1 { "" } else { "s" }
    );

    let best: Vec<Row> =
        gate_args.best_of(|| run_sweep(ranks, iters, shards, max_jobs), |r| r.calls_per_sec);

    println!("| concurrent jobs | wall (ms) | calls | calls/sec | jobs/sec | backpressure |");
    println!("|---:|---:|---:|---:|---:|---:|");
    let mut rows: Vec<String> = Vec::new();
    for r in &best {
        let secs = (r.wall_ms / 1e3).max(1e-9);
        println!(
            "| {} | {:.1} | {} | {:.0} | {:.1} | {} |",
            r.jobs,
            r.wall_ms,
            r.calls,
            r.calls_per_sec,
            r.jobs as f64 / secs,
            r.backpressure
        );
        rows.push(format!(
            "{{\"jobs\":{},\"wall_ms\":{:.1},\"calls\":{},\"calls_per_sec\":{:.0},\
             \"backpressure\":{}}}",
            r.jobs, r.wall_ms, r.calls, r.calls_per_sec, r.backpressure
        ));
    }

    gate_args.write_json(&format!(
        "{{\"schema\":1,\"bench\":\"ingest\",\"ranks\":{ranks},\"iters\":{iters},\
         \"shards\":{shards},\"rows\":[{}]}}\n",
        rows.join(",")
    ));

    if let Some(path) = &gate_args.check_against {
        let fresh: Vec<GateRow> = best
            .iter()
            .map(|r| GateRow { key: r.jobs.to_string(), wall_ms: r.wall_ms, rate: r.calls_per_sec })
            .collect();
        gate(&GATE, path, &fresh);
    }
}
