//! Shared harness for the paper-reproduction benchmark binaries.
//!
//! This module provides the common runners (trace a workload under
//! Pilgrim / ScalaTrace / raw / untraced) and flag parsing; [`sizes`] is
//! the one fixed matrix behind every trace-size table of the paper
//! (§4.1, Figs 5, 6, 9, 10), committed as `results/SIZES.tsv`, and
//! [`chaos`] the one set of seeded fault-injection sweeps, committed as
//! `results/CHAOS.md`. The paper's largest runs used 4K–16K cluster
//! processors; rank counts here are laptop-friendly, and the wall-clock
//! binaries (`fig7_overhead`, `fig8_decomposition`, `ablations`) take
//! `--max-procs N` / `--iters N`.

pub mod chaos;
pub mod sizes;

use std::time::{Duration, Instant};

use mpi_sim::{NullTracer, World, WorldConfig};
use mpi_workloads::Body;
use pilgrim::{GlobalTrace, MetricsReport, OverheadStats, PilgrimConfig, PilgrimTracer};
use trace_baselines::{RawTracer, ScalaTraceTracer};

/// The workloads the collector-side binaries rotate their jobs through.
pub const WORKLOADS: [&str; 4] = ["stencil2d", "stencil3d", "lu", "mg"];

/// Result of one traced Pilgrim run.
pub struct PilgrimRun {
    pub trace: GlobalTrace,
    pub wall: Duration,
    pub stats: OverheadStats,
    /// Rank 0's own stats: the rank that performs the final merge work.
    pub stats_rank0: OverheadStats,
    /// All ranks' metrics merged (timers/counters summed), with rank 0's
    /// trace size decomposition attached. All-zero timers unless the run's
    /// [`PilgrimConfig::metrics`] was enabled.
    pub metrics: MetricsReport,
    /// Sum of per-rank local (pre-merge) sizes.
    pub local_bytes: usize,
    pub total_calls: u64,
}

/// Runs a workload under the Pilgrim tracer.
pub fn run_pilgrim(nranks: usize, cfg: PilgrimConfig, body: Body) -> PilgrimRun {
    run_pilgrim_world(&WorldConfig::new(nranks), cfg, body)
}

/// [`run_pilgrim`] with a custom world configuration (overhead
/// experiments enable compute spinning).
pub fn run_pilgrim_world(wcfg: &WorldConfig, cfg: PilgrimConfig, body: Body) -> PilgrimRun {
    let start = Instant::now();
    let mut tracers = World::run(wcfg, |rank| PilgrimTracer::new(rank, cfg), move |env| body(env));
    let wall = start.elapsed();
    let mut stats = OverheadStats::default();
    let mut metrics = MetricsReport::default();
    let mut local_bytes = 0;
    let mut total_calls = 0;
    let mut trace = None;
    let mut stats_rank0 = OverheadStats::default();
    for (rank, t) in tracers.iter_mut().enumerate() {
        local_bytes += t.local_size_bytes();
        total_calls += t.call_count();
        let out = t.take_output();
        stats.merge(&out.stats);
        metrics.merge(&out.metrics);
        if rank == 0 {
            stats_rank0 = out.stats;
            trace = out.trace;
        }
    }
    PilgrimRun {
        trace: trace.expect("rank 0 trace"),
        wall,
        stats,
        stats_rank0,
        metrics,
        local_bytes,
        total_calls,
    }
}

/// `--metrics-out <path>`: where to write a JSON metrics report, if
/// requested.
pub fn metrics_out() -> Option<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    flag_value(&args, "--metrics-out", "a path", |v| Some(v.to_string()))
}

/// Writes a metrics report as JSON to `path` and logs where it went.
pub fn write_metrics(path: &str, report: &MetricsReport) {
    std::fs::write(path, report.to_json()).expect("write metrics JSON");
    eprintln!("metrics written to {path}");
}

/// Runs a workload under the ScalaTrace model; returns
/// (size, wall time, distinct groups).
pub fn run_scalatrace(nranks: usize, body: Body) -> (usize, Duration, usize) {
    run_scalatrace_world(&WorldConfig::new(nranks), body)
}

/// [`run_scalatrace`] with a custom world configuration.
pub fn run_scalatrace_world(wcfg: &WorldConfig, body: Body) -> (usize, Duration, usize) {
    let start = Instant::now();
    let tracers = World::run(wcfg, ScalaTraceTracer::new, move |env| body(env));
    let wall = start.elapsed();
    let g = tracers[0].global().expect("rank 0 result");
    (g.size_bytes(), wall, g.groups.len())
}

/// Runs a workload with no tracer; returns wall time.
pub fn run_untraced(nranks: usize, body: Body) -> Duration {
    run_untraced_world(&WorldConfig::new(nranks), body)
}

/// [`run_untraced`] with a custom world configuration.
pub fn run_untraced_world(wcfg: &WorldConfig, body: Body) -> Duration {
    let start = Instant::now();
    World::run(wcfg, |_| NullTracer, move |env| body(env));
    start.elapsed()
}

/// Runs a workload under the raw tracer; returns total bytes.
pub fn run_raw(nranks: usize, body: Body) -> u64 {
    let tracers = World::run(&WorldConfig::new(nranks), RawTracer::new, move |env| body(env));
    tracers.iter().map(|t| t.bytes()).sum()
}

/// `--name N` from this process's arguments, else `default`.
fn arg_or(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().skip(1).collect();
    flag(&args, name).map_or(default, |v| v as usize)
}

/// `--max-procs N`, with a default.
pub fn max_procs(default: usize) -> usize {
    arg_or("--max-procs", default)
}

/// `--iters N` override for run length.
pub fn iters(default: usize) -> usize {
    arg_or("--iters", default)
}

fn flag_value<T>(
    args: &[String],
    name: &str,
    want: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Option<T> {
    args.iter().position(|a| a == name).map(|i| {
        args.get(i + 1).and_then(|v| parse(v)).unwrap_or_else(|| {
            eprintln!("{name} needs {want}");
            std::process::exit(2)
        })
    })
}

/// `--name N` (decimal, or hex with a `0x` prefix); a missing or
/// non-numeric value is a usage error (exit 2).
pub fn flag(args: &[String], name: &str) -> Option<u64> {
    flag_value(args, name, "a numeric value", |v| {
        match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => v.parse().ok(),
        }
    })
}

/// `--name X.Y`, same usage-error rule as [`flag`].
pub fn fflag(args: &[String], name: &str) -> Option<f64> {
    flag_value(args, name, "a numeric value", |v| v.parse().ok())
}

/// `--name VALUE` taken verbatim (paths, addresses, enum words).
pub fn sflag(args: &[String], name: &str) -> Option<String> {
    flag_value(args, name, "a value", |v| Some(v.to_string()))
}

/// Pretty byte counts, KB with one decimal like the paper's plots.
pub fn kb(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

/// Doubling sweep `start..=max`.
pub fn sweep(start: usize, max: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut p = start;
    while p <= max {
        v.push(p);
        p *= 2;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps() {
        assert_eq!(sweep(8, 64), vec![8, 16, 32, 64]);
        assert_eq!(kb(2048), "2.0");
    }

    #[test]
    fn runners_work_end_to_end() {
        let body = mpi_workloads::by_name("stirturb", 5);
        let run = run_pilgrim(4, PilgrimConfig::default(), body.clone());
        assert!(run.trace.size_bytes() > 0);
        assert!(run.total_calls > 0);
        let (st_size, _, groups) = run_scalatrace(4, body.clone());
        assert!(st_size > 0 && groups >= 1);
        let raw = run_raw(4, body.clone());
        assert!(raw > run.trace.size_bytes() as u64);
        let _ = run_untraced(4, body);
    }
}
