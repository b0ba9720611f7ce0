//! `chaos_net` — seeded fault-injection sweep over the `PNT1` wire
//! transport, with the no-silent-drop gate.
//!
//! ```text
//! chaos_net [--jobs J] [--ranks R] [--iters I] [--seed S] [--quick]
//! ```
//!
//! Each cell runs `J` concurrent jobs, one [`pilgrim::NetClient`] per
//! job (a tripped partition is client-global, so per-job clients keep
//! the cells independent), against one loopback [`pilgrim::serve`]
//! collector. The cell's [`pilgrim::NetFaultPlan`] injects refused
//! connects, mid-frame cuts, flipped bytes, duplicated frames, stalls,
//! and permanent partitions; every decision is a pure function of the
//! seed and the fault coordinates, so the table is bit-identical run to
//! run (`scripts/check.sh` runs the sweep twice and diffs the output).
//!
//! Per cell the table reports how each job's data ended up durable:
//! `delivered` (the collector acked the finish), `salvaged` (the client
//! degraded to local spill and/or collector-side recovery rebuilt the
//! job from the per-connection WALs), `lost` (nowhere). The gate is the
//! robustness invariant of the transport: **no silent drops** — every
//! job must be accounted for by the client outcome or the collector's
//! recovery in every cell, or the sweep exits 1.
//!
//! Timing-dependent counters (retransmits, reconnects, ack batching) go
//! to stderr only; stdout carries nothing that can vary run to run.

use std::collections::HashMap;
use std::path::Path;
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

use pilgrim::recover::RecoveryState;
use pilgrim::{
    serve, IngestConfig, IngestSession, NetClient, NetClientConfig, NetFaultPlan, NetServerConfig,
    PilgrimConfig, PilgrimTracer, RetryPolicy, SegmentSink,
};
use pilgrim_bench::{flag, WORKLOADS};

#[derive(Clone, Copy)]
struct Sweep {
    jobs: usize,
    ranks: usize,
    iters: usize,
    seed: u64,
}

/// One sweep cell: a label, the fault plan, and the client retry budget
/// (the refuse-everything cell shrinks it so degrade fires fast).
struct Cell {
    name: &'static str,
    rate: f64,
    plan: NetFaultPlan,
    retry_attempts: u32,
}

fn cells(seed: u64) -> Vec<Cell> {
    let p = NetFaultPlan::new(seed);
    vec![
        Cell { name: "clean", rate: 0.0, plan: p.clone(), retry_attempts: 8 },
        Cell {
            name: "refuse",
            rate: 0.3,
            plan: p.clone().connect_refuse_rate(0.3),
            retry_attempts: 8,
        },
        Cell {
            name: "refuse",
            rate: 0.7,
            plan: p.clone().connect_refuse_rate(0.7),
            retry_attempts: 8,
        },
        Cell { name: "cut", rate: 0.1, plan: p.clone().cut_rate(0.1), retry_attempts: 8 },
        Cell { name: "cut", rate: 0.3, plan: p.clone().cut_rate(0.3), retry_attempts: 8 },
        Cell { name: "corrupt", rate: 0.1, plan: p.clone().corrupt_rate(0.1), retry_attempts: 8 },
        Cell { name: "corrupt", rate: 0.3, plan: p.clone().corrupt_rate(0.3), retry_attempts: 8 },
        Cell { name: "dup", rate: 0.2, plan: p.clone().duplicate_rate(0.2), retry_attempts: 8 },
        Cell { name: "dup", rate: 0.5, plan: p.clone().duplicate_rate(0.5), retry_attempts: 8 },
        Cell {
            name: "stall",
            rate: 0.3,
            plan: p.clone().stall_rate(0.3).stall_ms(2),
            retry_attempts: 8,
        },
        Cell {
            name: "refuse-all",
            rate: 1.0,
            plan: p.clone().connect_refuse_rate(1.0),
            retry_attempts: 2,
        },
        Cell {
            name: "partition",
            rate: 0.02,
            plan: p.clone().partition_rate(0.02),
            retry_attempts: 4,
        },
        Cell {
            name: "partition",
            rate: 0.05,
            plan: p.clone().partition_rate(0.05),
            retry_attempts: 4,
        },
        Cell {
            name: "mixed",
            rate: 0.1,
            plan: p.cut_rate(0.1).corrupt_rate(0.1).duplicate_rate(0.2),
            retry_attempts: 8,
        },
    ]
}

struct CellResult {
    delivered: usize,
    salvaged: usize,
    lost: usize,
}

fn run_cell(dir: &Path, cell_idx: usize, cell: &Cell, sw: Sweep) -> CellResult {
    let Sweep { jobs, ranks, iters, seed } = sw;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap_or_else(|e| {
        eprintln!("cannot bind loopback: {e}");
        exit(1)
    });
    let session =
        IngestSession::new(IngestConfig::new().shards(2).spill_dir(dir)).unwrap_or_else(|e| {
            eprintln!("cannot start ingest session: {e}");
            exit(1)
        });
    let server = serve(listener, session, NetServerConfig::new()).unwrap_or_else(|e| {
        eprintln!("cannot serve: {e}");
        exit(1)
    });
    let addr = server.addr().to_string();

    let outcomes: Vec<_> = (0..jobs)
        .map(|j| {
            let addr = addr.clone();
            let plan = cell.plan.clone();
            let retry_attempts = cell.retry_attempts;
            let client_dir = dir.join(format!("client-{j}"));
            std::thread::spawn(move || {
                // One client per job: a tripped partition or an
                // exhausted retry budget degrades exactly this job.
                // Client ids are fixed per (cell, job) so every fault
                // coordinate reproduces run to run.
                let client_id = (cell_idx as u64) * 64 + j as u64 + 1;
                let cfg = NetClientConfig::new(addr)
                    .client_id(client_id)
                    .retry(
                        RetryPolicy::default()
                            .max_attempts(retry_attempts)
                            .backoff(Duration::from_millis(5)),
                    )
                    .heartbeat(Duration::from_millis(200))
                    .finish_timeout(Duration::from_secs(60))
                    .spill_dir(client_dir)
                    .faults(plan);
                let client = NetClient::start(cfg).unwrap_or_else(|e| {
                    eprintln!("cannot start net client: {e}");
                    exit(1)
                });
                // Odd jobs trace under a memory budget: the governor
                // seals segments mid-run, so the stream carries many
                // frames per rank and the faults have surface to hit.
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
                    "  cell {cell_idx} job {j}: {} connects, {} retransmits, {} spilled",
                    stats.connects, stats.retransmits, stats.spilled_records
                );
                out
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("driver thread panicked"))
        .collect();

    server.stop();
    // Collector-side recovery over the per-connection WAL union: the
    // second half of the accounting for jobs the client couldn't settle.
    let states: HashMap<u64, RecoveryState> = pilgrim::recover::recover_dir(dir)
        .map(|r| r.jobs.iter().map(|j| (j.job, j.state)).collect())
        .unwrap_or_default();

    let mut result = CellResult { delivered: 0, salvaged: 0, lost: 0 };
    for out in &outcomes {
        if out.delivered {
            result.delivered += 1;
        } else if out.local_path.is_some()
            || states.get(&out.job).is_some_and(|s| *s != RecoveryState::Lost)
        {
            result.salvaged += 1;
        } else {
            result.lost += 1;
            eprintln!("  cell {cell_idx}: job {} lost! problems: {:?}", out.job, out.problems);
        }
    }
    result
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let jobs = flag(&args, "--jobs").unwrap_or(if quick { 4 } else { 6 }) as usize;
    let ranks = flag(&args, "--ranks").unwrap_or(2) as usize;
    let iters = flag(&args, "--iters").unwrap_or(if quick { 5 } else { 10 }) as usize;
    let seed = flag(&args, "--seed").unwrap_or(0x4E45_5443);

    let base = std::env::temp_dir().join(format!("pilgrim-chaos-net-{seed:x}"));
    let _ = std::fs::remove_dir_all(&base);

    println!("chaos_net: {jobs} jobs x {ranks} ranks, {iters} iters, seed {seed:#x}");
    println!("| cell | rate | jobs | delivered | salvaged | lost |");
    println!("|---|---:|---:|---:|---:|---:|");

    let sw = Sweep { jobs, ranks, iters, seed };
    let mut total_lost = 0usize;
    for (i, cell) in cells(seed).iter().enumerate() {
        let dir = base.join(format!("cell-{i}"));
        let r = run_cell(&dir, i, cell, sw);
        println!(
            "| {} | {:.2} | {jobs} | {} | {} | {} |",
            cell.name, cell.rate, r.delivered, r.salvaged, r.lost
        );
        total_lost += r.lost;
    }
    let _ = std::fs::remove_dir_all(&base);
    if total_lost > 0 {
        eprintln!("chaos_net: {total_lost} jobs silently dropped");
        exit(1)
    }
    println!("chaos_net: every job accounted for in every cell");
}
