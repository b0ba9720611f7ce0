//! `governor_sweep` — memory-budget sweep on the compression-hostile
//! adversarial workload: how far up the degradation ladder each budget
//! pushes the tracer, and what that costs in trace size.
//!
//! ```text
//! governor_sweep [--ranks N] [--iters N] [--seed N]
//! ```
//!
//! Each row runs the same seeded adversarial kernel under one per-rank
//! memory budget and reports the peak governed working set, the highest
//! ladder stage reached, transition/seal counts, the serialized trace
//! size, and the compression ratio against the raw (uncompressed) trace.
//! The whole sweep is deterministic: same seed, same rows.

use mpi_sim::{Env, World, WorldConfig};
use mpi_workloads::adversarial::adversarial_seeded;
use pilgrim::{DegradationStage, PilgrimConfig, PilgrimTracer, TimingMode};
use pilgrim_bench::{flag, run_raw};

struct SweepRow {
    budget: Option<usize>,
    peak_bytes: u64,
    stage: Option<DegradationStage>,
    transitions: usize,
    seals: usize,
    trace_bytes: usize,
}

fn run_one(nranks: usize, iters: usize, seed: u64, budget: Option<usize>) -> SweepRow {
    let mut cfg = PilgrimConfig::new().timing(TimingMode::Lossy { base: 1.2 });
    if let Some(b) = budget {
        cfg = cfg.memory_budget(b);
    }
    let mut tracers = World::run(
        &WorldConfig::new(nranks),
        move |rank| PilgrimTracer::new(rank, cfg),
        move |env: &mut Env| adversarial_seeded(env, iters, seed),
    );
    let peak_bytes = tracers.iter().map(|t| t.governor().peak_bytes()).max().unwrap_or(0);
    let stage = tracers
        .iter()
        .flat_map(|t| t.governor().events().iter().map(|e| e.stage))
        .max_by_key(|s| s.code());
    let transitions: usize = tracers.iter().map(|t| t.governor().events().len()).sum();
    let seals = tracers
        .iter()
        .flat_map(|t| t.governor().events())
        .filter(|e| e.stage == DegradationStage::SealSegment)
        .count();
    let trace = tracers[0].take_output().trace.expect("rank 0 trace");
    SweepRow { budget, peak_bytes, stage, transitions, seals, trace_bytes: trace.serialize().len() }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let nranks = flag(&args, "--ranks").unwrap_or(4) as usize;
    let iters = flag(&args, "--iters").unwrap_or(300) as usize;
    let seed = flag(&args, "--seed").unwrap_or(42);

    let raw_bytes = run_raw(
        nranks,
        std::sync::Arc::new(move |env: &mut Env| adversarial_seeded(env, iters, seed)),
    );
    println!(
        "governor sweep: adversarial workload, {nranks} ranks, {iters} iters, seed {seed} \
         (raw trace {raw_bytes} bytes)"
    );
    println!(
        "{:>10} {:>12} {:>17} {:>12} {:>6} {:>12} {:>8}",
        "budget", "peak bytes", "stage reached", "transitions", "seals", "trace bytes", "ratio"
    );
    let budgets: [Option<usize>; 5] =
        [None, Some(1 << 20), Some(256 << 10), Some(64 << 10), Some(16 << 10)];
    for budget in budgets {
        let row = run_one(nranks, iters, seed, budget);
        println!(
            "{:>10} {:>12} {:>17} {:>12} {:>6} {:>12} {:>7.1}x",
            row.budget.map_or("none".into(), |b| format!("{} KiB", b >> 10)),
            // An unbudgeted governor does no accounting, so it has no peak.
            if row.budget.is_some() { row.peak_bytes.to_string() } else { "-".into() },
            row.stage.map_or("-", DegradationStage::name),
            row.transitions,
            row.seals,
            row.trace_bytes,
            raw_bytes as f64 / row.trace_bytes as f64
        );
    }
}
