//! Query-engine microbenchmark: full grammar expansion vs indexed /
//! streaming / grammar-aware access on the paper's workloads (fig5 NPB
//! LU + MG, fig9 MILC).
//!
//! For each workload it times: one full decode of every rank, building
//! the `TraceIndex`, 1000 indexed random probes, streaming a 1000-call
//! window, the per-signature histogram, and the communication matrix —
//! then reports the speedup of the grammar-aware analytics over paying
//! for a full expansion.

use std::time::{Duration, Instant};

use mpi_workloads::by_name;
use pilgrim::{
    decode_rank_calls, CallIterator, MetricsRegistry, PilgrimConfig, QueryEngine, TraceIndex,
};
use pilgrim_bench::{iters, max_procs, run_pilgrim};

/// Best-of-3 wall time: the minimum is the least noisy estimator for
/// short deterministic operations.
fn time<T>(mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut best: Option<Duration> = None;
    let mut out = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let v = f();
        let dt = t0.elapsed();
        if best.is_none_or(|b| dt < b) {
            best = Some(dt);
        }
        out = Some(v);
    }
    (best.unwrap(), out.unwrap())
}

fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

fn main() {
    let procs = max_procs(16);
    let its = iters(30);
    println!("== Query engine: indexed/streaming access vs full decode ==");
    println!("({procs} procs, {its} iterations; times are best-of-3 wall clock)");
    println!(
        "{:<10}{:>10}{:>12}{:>12}{:>12}{:>12}{:>12}{:>12}{:>10}",
        "workload",
        "calls",
        "decode ms",
        "index ms",
        "probe us",
        "window ms",
        "counts ms",
        "matrix ms",
        "speedup"
    );
    for wl in ["lu", "mg", "milc"] {
        let run = run_pilgrim(procs, PilgrimConfig::default(), by_name(wl, its));
        let trace = run.trace;
        let total = trace.total_calls();

        let (t_decode, _) = time(|| {
            for rank in 0..trace.nranks {
                decode_rank_calls(&trace, rank).expect("decodable trace");
            }
        });

        let metrics = MetricsRegistry::new(true);
        let (t_index, index) = time(|| TraceIndex::build_with_metrics(&trace, &metrics));

        // 1000 indexed probes spread deterministically over the trace.
        let probes: Vec<u64> = (0..1000).map(|i| (i * 7919) % total).collect();
        let (t_probe, _) = time(|| {
            for &p in &probes {
                let rank = index.nranks() - 1 - (p as usize % index.nranks());
                let i = p % index.rank_len(rank).max(1);
                index.call_at(&trace, rank, i).expect("in range");
            }
        });

        // Stream a 1000-call window from the middle of rank 0.
        let mid = (index.rank_len(0) / 2) as usize;
        let (t_window, streamed) =
            time(|| CallIterator::new(&trace, &index, 0).skip(mid).take(1000).count());
        assert!(streamed > 0);

        let (t_counts, engine) = time(|| {
            let e = QueryEngine::with_metrics(&trace, &index, &metrics);
            assert!(!e.signature_counts().is_empty());
            e
        });
        let (t_matrix, m) = time(|| engine.comm_matrix());

        let speedup = t_decode.as_secs_f64() / (t_index + t_matrix).as_secs_f64();
        println!(
            "{:<10}{:>10}{:>12}{:>12}{:>12.2}{:>12}{:>12}{:>12}{:>9.1}x",
            wl,
            total,
            ms(t_decode),
            ms(t_index),
            t_probe.as_secs_f64() * 1e6 / probes.len() as f64,
            ms(t_window),
            ms(t_counts),
            ms(t_matrix),
            speedup
        );
        eprintln!(
            "   {wl}: sends={} recvs={} wildcard={} index bytes={}",
            m.total_sends(),
            m.total_recvs(),
            m.wildcard_recvs.iter().sum::<u64>(),
            index.byte_size()
        );
    }
    println!("\nspeedup = full decode / (index build + comm matrix).");
}
