//! `chaos` — fault-injection sweep: kill an increasing number of ranks
//! mid-run and measure how much of the trace survives, with and without
//! crash-consistent checkpoints.
//!
//! ```text
//! chaos [--seed N] [--ranks N] [--iters N] [--interval N] [--budget N] [--quick]
//! ```
//!
//! `--budget` additionally arms the resource governor with a per-rank
//! memory budget (bytes), so rank failures and memory-pressure
//! degradation can be exercised together; the `gov` column counts
//! degradation events recorded in the merged manifest.
//!
//! Every row kills `k` deterministic victims (never rank 0, which holds
//! the merged trace) at deterministic call counts, runs the degraded
//! merge, and reports calls and bytes recovered. The whole sweep is a
//! pure function of `--seed`.

use std::process::exit;

use mpi_sim::datatype::BasicType;
use mpi_sim::types::ReduceOp;
use mpi_sim::{Env, FaultPlan, World, WorldConfig};
use pilgrim::{PilgrimConfig, PilgrimTracer};
use pilgrim_bench::flag;

/// Deterministic wildcard-free workload (allreduce + ring sendrecv).
fn workload(env: &mut Env, iters: usize) {
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

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// `k` distinct victims in `1..nranks` with kill points spread over the
/// run, all derived from `seed`.
fn plan_kills(seed: u64, nranks: usize, iters: usize, k: usize) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    let mut state = seed ^ 0xC5A05;
    let mut victims: Vec<usize> = Vec::new();
    while victims.len() < k {
        let v = 1 + (splitmix(&mut state) as usize) % (nranks - 1);
        if !victims.contains(&v) {
            victims.push(v);
        }
    }
    let max_calls = (2 * iters) as u64; // init + iters * (allreduce + sendrecv)
    for v in victims {
        let at = 1 + splitmix(&mut state) % max_calls.max(2);
        plan = plan.kill(v, at);
    }
    plan
}

struct Row {
    kills: usize,
    checkpointed: bool,
    lost: usize,
    truncated: usize,
    governor_events: usize,
    calls_traced: u64,
    calls_in_trace: u64,
    trace_bytes: usize,
}

fn run_one(
    seed: u64,
    nranks: usize,
    iters: usize,
    k: usize,
    interval: Option<u64>,
    budget: Option<u64>,
) -> Row {
    let mut wcfg = WorldConfig::new(nranks);
    if k > 0 {
        wcfg.faults = Some(plan_kills(seed, nranks, iters, k));
    }
    let mut tcfg = PilgrimConfig::new().merge_timeout_ms(400);
    if let Some(iv) = interval {
        tcfg = tcfg.checkpoint_interval(iv);
    }
    if let Some(b) = budget {
        tcfg = tcfg.memory_budget(b as usize);
    }
    let mut out = World::run_faulty(
        &wcfg,
        |rank| PilgrimTracer::new(rank, tcfg),
        move |env| workload(env, iters),
    );
    let calls_traced: u64 = out
        .tracers
        .iter()
        .filter_map(|t| t.as_ref().map(|t| t.call_count()))
        .chain(out.failures.iter().map(|f| f.calls))
        .sum();
    let trace = out.tracers[0]
        .as_mut()
        .expect("rank 0 must survive (plans never target it)")
        .take_output()
        .trace
        .unwrap_or_else(|| {
            eprintln!("rank 0 produced no trace with {k} kills");
            exit(1)
        });
    Row {
        kills: k,
        checkpointed: interval.is_some(),
        lost: trace.completeness.lost_ranks().len(),
        truncated: trace.completeness.checkpoint_ranks().len(),
        governor_events: trace.completeness.events.len(),
        calls_traced,
        calls_in_trace: trace.total_calls(),
        trace_bytes: trace.serialize().len(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seed = flag(&args, "--seed").unwrap_or(0x5EED);
    let nranks = flag(&args, "--ranks").unwrap_or(8) as usize;
    let iters = flag(&args, "--iters").unwrap_or(if quick { 15 } else { 60 }) as usize;
    let interval = flag(&args, "--interval").unwrap_or(10);
    let budget = flag(&args, "--budget");
    if nranks < 2 {
        eprintln!("--ranks must be at least 2");
        exit(2);
    }
    let max_kills = if quick { 2.min(nranks - 1) } else { (nranks - 1).min(4) };

    let budget_note = budget.map_or(String::new(), |b| format!(", budget {b} bytes/rank"));
    println!(
        "chaos sweep: {nranks} ranks, {iters} iters, seed {seed:#x}, checkpoint every \
         {interval} calls{budget_note}"
    );
    println!(
        "{:>5} {:>11} {:>5} {:>9} {:>4} {:>12} {:>12} {:>9} {:>11}",
        "kills",
        "checkpoints",
        "lost",
        "truncated",
        "gov",
        "calls traced",
        "in trace",
        "recovered",
        "trace bytes"
    );
    for k in 0..=max_kills {
        for ckpt in [None, Some(interval)] {
            if k == 0 && ckpt.is_some() {
                continue; // healthy run: checkpoints change nothing in the trace
            }
            let row = run_one(seed, nranks, iters, k, ckpt, budget);
            let pct = if row.calls_traced == 0 {
                100.0
            } else {
                100.0 * row.calls_in_trace as f64 / row.calls_traced as f64
            };
            println!(
                "{:>5} {:>11} {:>5} {:>9} {:>4} {:>12} {:>12} {:>8.1}% {:>11}",
                row.kills,
                if row.checkpointed { "on" } else { "off" },
                row.lost,
                row.truncated,
                row.governor_events,
                row.calls_traced,
                row.calls_in_trace,
                pct,
                row.trace_bytes
            );
        }
    }
}
